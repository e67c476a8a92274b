package fencefix

// The import row allows this one file.
import "strings"

var _ = strings.ToUpper

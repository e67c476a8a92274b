package fencefix

// Test files are not type-checked; the import rows read them anyway.
import _ "encoding/gob" // want "nogob"

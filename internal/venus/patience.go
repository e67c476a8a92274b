package venus

import (
	"math"
	"time"
)

// PatienceParams are the constants of the user patience model of §4.4.4:
//
//	τ = α + β·e^(γ·P)
//
// where P is the object's hoard priority and τ is in seconds. The paper
// conjectures patience follows a logarithmic sensitivity law like vision,
// chooses α = 2 s (even an unimportant object is worth a 2-second wait over
// a miss), β = 1, γ = 0.01, and notes the implementation is structured so a
// better-founded model can be substituted — hence this separate type.
type PatienceParams struct {
	Alpha float64 // lower bound on patience, seconds
	Beta  float64 // scale
	Gamma float64 // exponent per priority unit
}

// DefaultPatience returns the paper's parameter choices.
func DefaultPatience() PatienceParams {
	return PatienceParams{Alpha: 2, Beta: 1, Gamma: 0.01}
}

// Threshold returns τ for an object of the given hoard priority.
func (p PatienceParams) Threshold(priority int) time.Duration {
	secs := p.Alpha + p.Beta*math.Exp(p.Gamma*float64(priority))
	if secs < 0 {
		secs = 0
	}
	// Cap at ~30 days to keep the duration finite for huge priorities.
	if secs > 30*24*3600 {
		secs = 30 * 24 * 3600
	}
	return time.Duration(secs * float64(time.Second))
}

// MaxFileSize converts τ into the largest file fetchable within the
// threshold at the given bandwidth (how Figure 7 plots the model).
func (p PatienceParams) MaxFileSize(priority int, bandwidthBits int64) int64 {
	tau := p.Threshold(priority).Seconds()
	return int64(tau * float64(bandwidthBits) / 8)
}

package venus

import (
	"time"
)

// probeTick maintains Venus's picture of server reachability, as the
// real Venus does with periodic RPC2 probes:
//
//   - While disconnected (emulating), it probes the group at each
//     interval; a response from any member means the network is back, and
//     Venus moves to write-disconnected on its own — the user does not
//     have to run anything for reintegration to resume.
//   - While connected, it probes only if nothing has been heard from any
//     member for a full interval (the unified keepalive of §4.1: any RPC2
//     or SFTP traffic suppresses probes); a probe no member answers
//     demotes to emulating so misses fail fast instead of hanging on
//     timeouts.
//
// It runs every Config.ProbeInterval, until the first tick after Close,
// and only when that is set; experiments control connectivity explicitly
// and leave it off.
func (v *Venus) probeTick() bool {
	if v.isClosed() {
		return false
	}
	switch v.State() {
	case Emulating:
		if v.probeAny() == nil {
			v.Connect(0) // bandwidth learned from subsequent traffic
		}
	default:
		if v.anyAlive(v.cfg.ProbeInterval) {
			return true // recent traffic is proof enough
		}
		if err := v.probeAny(); err != nil {
			if v.isClosed() {
				return false
			}
			v.transition(Emulating, "probe failed")
		}
	}
	return true
}

// anyAlive reports whether any member's link has seen traffic within the
// last interval.
func (v *Venus) anyAlive(interval time.Duration) bool {
	for _, addr := range v.cfg.Servers {
		if v.peerOf(addr).Alive(interval) {
			return true
		}
	}
	return false
}

// probeAny probes members in order until one answers; it returns nil on
// the first response, or the last error if none did.
func (v *Venus) probeAny() error {
	var lastErr error
	for _, addr := range v.cfg.Servers {
		err := v.node.Probe(addr, probeTimeout)
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

// probeTimeout bounds one probe exchange (with retries inside rpc2).
const probeTimeout = 20 * time.Second

// Probe checks group reachability once, on demand: success if any member
// responds.
func (v *Venus) Probe() error {
	err := v.probeAny()
	if err != nil && v.isClosed() {
		return ErrClosed
	}
	return err
}

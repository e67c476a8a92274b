package netsim

import (
	"net"
	"time"

	"repro/internal/bufpool"
)

// UDP adapts a real UDP socket to the PacketConn interface, so the full
// client/server stack (rpc2, sftp, venus, server) runs unchanged over a
// live network. Addresses are "host:port" strings.
//
// This file is the real-transport adapter on codalint's simclock
// allowlist: it is the one place outside internal/simtime and cmd/
// where wall-clock time may be read, because kernel socket deadlines
// (SetReadDeadline) are necessarily real time. Everything above this
// adapter blocks only through simtime.Clock.
type UDP struct {
	conn *net.UDPConn
}

// ListenUDP opens a real UDP endpoint on addr ("host:port"; ":0" picks a
// free port).
func ListenUDP(addr string) (*UDP, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	return &UDP{conn: c}, nil
}

// LocalAddr implements PacketConn.
func (u *UDP) LocalAddr() string { return u.conn.LocalAddr().String() }

// Send implements PacketConn.
func (u *UDP) Send(dst string, payload []byte) error {
	ua, err := net.ResolveUDPAddr("udp", dst)
	if err != nil {
		return err
	}
	_, err = u.conn.WriteToUDP(payload, ua)
	return err
}

// Recv implements PacketConn.
func (u *UDP) Recv() ([]byte, string, bool) {
	return u.recv(time.Time{})
}

// RecvTimeout implements PacketConn.
func (u *UDP) RecvTimeout(d time.Duration) ([]byte, string, bool) {
	return u.recv(time.Now().Add(d))
}

// Serve implements PacketConn: a reader goroutine hands h each datagram
// until the socket closes.
func (u *UDP) Serve(h func(payload []byte, src string)) {
	go func() {
		for {
			payload, src, ok := u.Recv()
			if !ok {
				return
			}
			h(payload, src)
		}
	}()
}

func (u *UDP) recv(deadline time.Time) ([]byte, string, bool) {
	if err := u.conn.SetReadDeadline(deadline); err != nil {
		return nil, "", false
	}
	buf := bufpool.Frame(64 << 10)
	n, src, err := u.conn.ReadFromUDP(buf)
	if err != nil {
		bufpool.Free(buf)
		return nil, "", false
	}
	return buf[:n], src.String(), true
}

// Close implements PacketConn.
func (u *UDP) Close() error { return u.conn.Close() }

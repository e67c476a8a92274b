package netsim

import (
	"net"

	"repro/internal/bufpool"
)

// UDP adapts a real UDP socket to the PacketConn interface, so the full
// client/server stack (rpc2, sftp, venus, server) runs unchanged over a
// live network. Addresses are "host:port" strings. Datagrams are served
// (PacketConn.Serve) by a reader goroutine blocked in the socket read, so
// the adapter sets no deadline and reads no clock.
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

// Serve implements PacketConn: a reader goroutine hands h each datagram
// until the socket closes.
func (u *UDP) Serve(h func(payload []byte, src string)) {
	go func() {
		for {
			payload, src, ok := u.recv()
			if !ok {
				return
			}
			h(payload, src)
		}
	}()
}

// recv reads one datagram into a bufpool frame; ok is false once the
// socket is closed.
func (u *UDP) recv() ([]byte, string, bool) {
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

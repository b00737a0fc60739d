//lintpath github.com/lightning-smartnic/lightning/internal/devkit

// Package fixture exercises errdrop's clean cases: errors handled or
// propagated, and a designed drop documented with the //lint:drop
// annotation.
package fixture

import (
	"net"
	"time"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// Send propagates every error on the response path.
func Send(pc net.PacketConn, addr net.Addr, m *nic.Message) error {
	out, err := m.AppendEncode(nil)
	if err != nil {
		return err
	}
	if _, err := pc.WriteTo(out, addr); err != nil {
		return err
	}
	return nil
}

// Disarm clears a read deadline on a socket being closed anyway: the close
// surfaces any real fault, and the annotation records that decision.
func Disarm(pc net.PacketConn) {
	_ = pc.SetReadDeadline(time.Time{}) //lint:drop the socket is closing; a failed disarm changes nothing
}

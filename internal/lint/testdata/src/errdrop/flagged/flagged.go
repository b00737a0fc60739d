//lintpath github.com/lightning-smartnic/lightning/internal/devkit

// Package fixture exercises errdrop's flagged cases: wire-codec and socket
// errors thrown away by blank assignment or bare call statements.
package fixture

import (
	"net"
	"time"

	"github.com/lightning-smartnic/lightning/internal/nic"
)

// Broadcast discards every error on the response path.
func Broadcast(pc net.PacketConn, addr net.Addr, m *nic.Message) {
	out, _ := m.AppendEncode(nil)
	pc.WriteTo(out, addr)
	_ = pc.SetReadDeadline(time.Time{})
}

// Sniff ignores a decode failure, serving garbage downstream.
func Sniff(data []byte) nic.Message {
	var m nic.Message
	m.Decode(data)
	return m
}

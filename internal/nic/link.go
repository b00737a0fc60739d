package nic

import (
	"sync/atomic"
	"time"
)

// Link models the 100 Gbps Ethernet interface (CMAC) the prototype uses: it
// accounts serialization time and per-frame overheads so latency experiments
// charge realistic wire costs. Transmit accounting is atomic: response
// frames leave from every worker goroutine concurrently.
type Link struct {
	// BitsPerSec is the line rate (1e11 for the prototype's CMAC).
	BitsPerSec float64
	// OverheadBytes is the per-frame framing cost charged on the wire:
	// preamble+SFD (8), FCS (4) and inter-packet gap (12).
	OverheadBytes int

	// txFrames, txBytes account transmitted traffic.
	txFrames, txBytes atomic.Uint64
}

// NewLink returns the prototype's 100 Gbps CMAC model.
func NewLink() *Link {
	return &Link{BitsPerSec: 100e9, OverheadBytes: 24}
}

// TxFrames returns the transmitted frame count.
func (l *Link) TxFrames() uint64 { return l.txFrames.Load() }

// TxBytes returns the transmitted byte count.
func (l *Link) TxBytes() uint64 { return l.txBytes.Load() }

// SerializationTime returns the wire time for one frame of n payload bytes.
func (l *Link) SerializationTime(n int) time.Duration {
	bits := float64(n+l.OverheadBytes) * 8
	return time.Duration(bits / l.BitsPerSec * 1e9)
}

// Transmit accounts a frame and returns its serialization time.
func (l *Link) Transmit(n int) time.Duration {
	l.txFrames.Add(1)
	l.txBytes.Add(uint64(n))
	return l.SerializationTime(n)
}

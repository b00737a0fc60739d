// Package axi models the AXI-stream style interconnect Lightning's datapath
// uses between the FPGA programmable logic, the Xilinx IPs, and the embedded
// system (§6.1). A Stream carries beats with valid/ready handshaking; a
// bounded depth provides the back-pressure behaviour the prototype relies on
// when reading from DRAM ("we implement a back-pressure AXI stream with a
// DRAM buffer to alleviate data burstiness").
//
// The model is deliberately synchronous: producers Push at most one beat per
// digital clock cycle per lane and consumers Pop likewise. The simulation
// clock itself lives in package datapath; Stream is just the queueing fabric.
package axi

import "errors"

// ErrStall is returned by Push when the downstream FIFO is full, i.e. the
// consumer has deasserted ready and the producer must retry next cycle.
var ErrStall = errors.New("axi: stream full (ready deasserted)")

// ErrEmpty is returned by Pop when no beat is valid this cycle.
var ErrEmpty = errors.New("axi: stream empty (valid deasserted)")

// Beat is one transfer on an AXI stream: a data word.
type Beat[T any] struct {
	Data T
}

// Stream is a bounded FIFO with AXI-stream semantics.
// The zero value is not usable; construct with NewStream.
type Stream[T any] struct {
	buf  []Beat[T]
	head int
	n    int
	// Pushes and Pops count successful transfers, for utilization stats.
	Pushes, Pops uint64
	// Stalls counts rejected Push attempts (back-pressure events).
	Stalls uint64
}

// NewStream creates a stream whose FIFO holds depth beats.
func NewStream[T any](depth int) *Stream[T] {
	if depth <= 0 {
		panic("axi: stream depth must be positive")
	}
	return &Stream[T]{buf: make([]Beat[T], depth)}
}

// Len returns the number of beats currently buffered.
func (s *Stream[T]) Len() int { return s.n }

// Ready reports whether the stream can accept a beat this cycle.
func (s *Stream[T]) Ready() bool { return s.n < len(s.buf) }

// Valid reports whether a beat is available this cycle.
func (s *Stream[T]) Valid() bool { return s.n > 0 }

// Push enqueues a beat, or returns ErrStall if the FIFO is full.
func (s *Stream[T]) Push(b Beat[T]) error {
	if !s.Ready() {
		s.Stalls++
		return ErrStall
	}
	s.buf[(s.head+s.n)%len(s.buf)] = b
	s.n++
	s.Pushes++
	return nil
}

// Pop dequeues the oldest beat, or returns ErrEmpty.
func (s *Stream[T]) Pop() (Beat[T], error) {
	if !s.Valid() {
		var zero Beat[T]
		return zero, ErrEmpty
	}
	b := s.buf[s.head]
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.Pops++
	return b, nil
}

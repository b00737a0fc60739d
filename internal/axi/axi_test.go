package axi

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPushPopFIFOOrder(t *testing.T) {
	s := NewStream[int](4)
	for i := 0; i < 4; i++ {
		if err := s.Push(Beat[int]{Data: i}); err != nil {
			t.Fatalf("Push %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		b, err := s.Pop()
		if err != nil {
			t.Fatalf("Pop %d: %v", i, err)
		}
		if b.Data != i {
			t.Fatalf("Pop %d = %d, want %d", i, b.Data, i)
		}
	}
}

func TestBackPressure(t *testing.T) {
	s := NewStream[int](2)
	s.Push(Beat[int]{Data: 1})
	s.Push(Beat[int]{Data: 2})
	if err := s.Push(Beat[int]{Data: 3}); !errors.Is(err, ErrStall) {
		t.Fatalf("expected ErrStall, got %v", err)
	}
	if s.Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", s.Stalls)
	}
	if s.Ready() {
		t.Error("Ready() true on full stream")
	}
}

func TestPopEmpty(t *testing.T) {
	s := NewStream[int](1)
	if _, err := s.Pop(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
	if s.Valid() {
		t.Error("Valid() true on empty stream")
	}
}

func TestWrapAround(t *testing.T) {
	s := NewStream[int](3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := s.Push(Beat[int]{Data: round*3 + i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			b, err := s.Pop()
			if err != nil || b.Data != round*3+i {
				t.Fatalf("round %d pop %d = %v, %v", round, i, b, err)
			}
		}
	}
}

func TestReset(t *testing.T) {
	s := NewStream[int](2)
	s.Push(Beat[int]{Data: 1})
	s.Push(Beat[int]{Data: 2})
	s.Push(Beat[int]{Data: 3}) // stall
	s.Reset()
	if s.Len() != 0 || s.Pushes != 0 || s.Stalls != 0 {
		t.Errorf("Reset left state: len=%d pushes=%d stalls=%d", s.Len(), s.Pushes, s.Stalls)
	}
}

func TestNewStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStream(0) did not panic")
		}
	}()
	NewStream[int](0)
}

// Property: after any interleaving of pushes and pops, Len equals
// successful pushes minus successful pops and never exceeds depth.
func TestLenInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		s := NewStream[int](5)
		for i, push := range ops {
			if push {
				s.Push(Beat[int]{Data: i})
			} else {
				s.Pop()
			}
			if s.Len() != int(s.Pushes-s.Pops) || s.Len() > s.Depth() || s.Len() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package main

import "testing"

// TestCheckFlags: -self refuses -addr (it would load the wrong server),
// -conns below the address count is refused (some address would get no
// socket), and without -self an address is required.
func TestCheckFlags(t *testing.T) {
	two := []string{"127.0.0.1:4055", "127.0.0.1:4056"}
	for _, c := range []struct {
		self  bool
		addrs []string
		conns int
		ok    bool
	}{
		{true, nil, 2, true},
		{false, []string{"127.0.0.1:4055"}, 2, true},
		{false, two, 2, true},
		{false, two, 4, true},
		{true, []string{"127.0.0.1:9"}, 2, false},
		{true, two, 2, false},
		{false, two, 1, false},
		{false, []string{"127.0.0.1:4055"}, 0, false},
		{false, nil, 2, false},
	} {
		err := checkFlags(c.self, c.addrs, c.conns)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(self %v, addrs %q, conns %d) = %v, want ok %v", c.self, c.addrs, c.conns, err, c.ok)
		}
	}
}

// Package main exercises reachability's clean cases: a function only a var
// initializer calls, and methods that no code calls by name but that an
// interface reaches. Area is reached by an
// interface call, Len, Less and Swap by a conversion to sort.Interface,
// which only the standard library calls through, and String by fmt, which
// asserts fmt.Stringer inside the standard library.
package main

import (
	"fmt"
	"sort"
)

type shape interface{ Area() float64 }

type square struct{ side float64 }

func (q square) Area() float64 { return q.side * q.side }

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

type label int

func (l label) String() string { return fmt.Sprintf("label %d", int(l)) }

// init and var initializers are roots too: only words' initializer calls
// buildWords.
var words = buildWords()

func buildWords() byLen { return byLen{"ccc", "a", "bb"} }

func init() { sort.Sort(words) }

func main() {
	var s shape = square{side: 2}
	fmt.Println(s.Area(), label(1), words)
}

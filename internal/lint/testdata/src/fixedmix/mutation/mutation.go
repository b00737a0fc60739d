//lintpath github.com/lightning-smartnic/lightning/internal/datapath

// Package fixture is the datapath's softmax normalizer with its integer
// rounding replaced by a float division truncated into a code. Every
// probability code it writes can read one below the rounded one, and no
// test pins the difference.
package fixture

import "github.com/lightning-smartnic/lightning/internal/fixed"

// normalize writes each exponential's share of total as a code.
func normalize(out []fixed.Code, exps []int64, total int64) {
	for i, e := range exps {
		out[i] = fixed.Code(float64(e) * 255 / float64(total))
	}
}

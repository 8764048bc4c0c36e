package collectives

import (
	"fmt"
	"testing"
)

// TestAutoAlgorithmTable pins AlgoAuto's documented choice at every boundary:
// recursive doubling at up to 4Ki elements or below four ranks, Rabenseifner
// below 32Ki elements, and the pipelined ring from 32Ki up.
func TestAutoAlgorithmTable(t *testing.T) {
	for _, tc := range []struct {
		n, size int
		want    Algorithm
	}{
		{1, 1, AlgoRecursiveDoubling},
		{1 << 20, 1, AlgoRecursiveDoubling},
		{1 << 20, 2, AlgoRecursiveDoubling},
		{1 << 20, 3, AlgoRecursiveDoubling},
		{4096, 4, AlgoRecursiveDoubling},
		{4096, 64, AlgoRecursiveDoubling},
		{4097, 4, AlgoRabenseifner},
		{4097, 5, AlgoRabenseifner},
		{32767, 4, AlgoRabenseifner},
		{32767, 64, AlgoRabenseifner},
		{32768, 4, AlgoRing},
		{32768, 5, AlgoRing},
		{1 << 20, 4, AlgoRing},
	} {
		t.Run(fmt.Sprintf("n%d_p%d", tc.n, tc.size), func(t *testing.T) {
			if got := autoAlgorithm(tc.n, tc.size); got != tc.want {
				t.Fatalf("autoAlgorithm(%d, %d) = %d, want %d", tc.n, tc.size, got, tc.want)
			}
		})
	}
}

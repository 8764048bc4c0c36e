package collective

import "testing"

// BenchmarkDrainGate prices the drain barrier every Reduce, bucketed step
// and model sync passes on a static world: one admit and one finish, each
// under the reducer's mutex, with no transition pending.
func BenchmarkDrainGate(b *testing.B) {
	w, err := NewWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	red, err := w.Node(0).Reducer(1024)
	if err != nil {
		b.Fatal(err)
	}
	r := red.(*elasticReducer)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.beginOp(false); err != nil {
			b.Fatal(err)
		}
		r.endOp(false)
	}
}

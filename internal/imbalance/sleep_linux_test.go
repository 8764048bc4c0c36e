package imbalance

import (
	"errors"
	"os"
	"testing"
	"time"

	"eagersgd/internal/race"
)

// A pooled file that cannot be armed must still give a full sleep, and must
// be closed rather than handed to the next sleeper.
func TestSleepFallsBackWhenTheTimerFails(t *testing.T) {
	f, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for timerFiles.Get() != nil { // empty the pool, so sleep gets the broken file
	}
	// /dev/null is no timerfd: timerfd_settime fails with EINVAL.
	timerFiles.Put(&timerFile{fd: f.Fd(), file: f})
	const d = 2 * time.Millisecond
	start := time.Now()
	sleep(d)
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("fallback sleep took %v, want at least %v", elapsed, d)
	}
	if race.Enabled {
		return // Put may have dropped the file: sync.Pool does at random under the detector
	}
	if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("the failed timer file was not closed: Stat error %v", err)
	}
}

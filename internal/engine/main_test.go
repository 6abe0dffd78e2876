package engine_test

import (
	"testing"

	"sp2bench/internal/testutil"
)

// TestMain backstops the whole suite with a goroutine-leak check: the
// concurrent-query and cancellation tests here spawn goroutines, and
// every one must be joined by the time the last test finishes. See internal/testutil and the goroutinecleanup analyzer —
// the analyzer proves a join path exists, this proves it runs.
func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

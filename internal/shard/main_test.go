package shard_test

import (
	"testing"

	"sp2bench/internal/testutil"
)

// TestMain backstops the suite with a goroutine-leak check: the scatter
// fan-out, remote shard clients and the httptest shard servers all
// spawn goroutines that must be gone once every test has shut its
// servers down — including tests that fail a shard mid-query.
func TestMain(m *testing.M) { testutil.VerifyNoLeaks(m) }

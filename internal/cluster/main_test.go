package cluster

import (
	"testing"

	"innet/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

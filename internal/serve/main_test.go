package serve

import (
	"io"
	"log/slog"
	"os"
	"testing"
)

// TestMain discards the lifecycle log: Open writes one line per recovery
// and the crash matrices open thousands of directories. TestSnapshotAndRecoveryLayers
// installs its own handler to read the line.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}

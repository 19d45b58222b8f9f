package patree_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/server"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/workload"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/config_surface.txt from the current config structs")

// configStructs are the structs a caller fills to configure the system.
// Every settable field of each is a configuration dimension, so any
// change to the set shows up as a reviewed diff of the golden.
var configStructs = []any{
	patree.Options{},
	core.Config{},
	client.Options{},
	server.Options{},
	nvme.SimConfig{},
	nvme.RAMConfig{},
	simos.Config{},
	probe.TrainConfig{},
	workload.YCSBConfig{},
	workload.SSEConfig{},
	workload.TDriveConfig{},
}

// TestConfigSurface pins the exported fields of every config struct in
// testdata/config_surface.txt; run with -update to accept a change.
func TestConfigSurface(t *testing.T) {
	var b strings.Builder
	for _, s := range configStructs {
		typ := reflect.TypeOf(s)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&b, "%s.%s %s\n", typ, f.Name, f.Type)
			}
		}
	}
	path := filepath.Join("testdata", "config_surface.txt")
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("config surface changed (run with -update and review the diff):\n got:\n%s\nwant:\n%s", got, want)
	}
}

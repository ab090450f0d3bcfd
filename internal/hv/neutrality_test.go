// Backend neutrality lint: only the root kvmarm package may name a
// concrete backend (it registers them with hv.Register); every other
// package — the harness, the workloads, the tools, and the arch-neutral
// layers under internal/ — drives hypervisors solely through internal/hv.
// The backends themselves stay independent of each other, except that
// internal/vhe is a world switch on internal/core and imports it.
package hv_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var backendPkgs = []string{
	"kvmarm/internal/core",
	"kvmarm/internal/kvmx86",
	"kvmarm/internal/vhe",
}

// allowedBackendImports lists, per package directory (relative to the
// module root), the backends it may import.
var allowedBackendImports = map[string][]string{
	".":               backendPkgs,
	"internal/vhe":    {"kvmarm/internal/core"},
	"internal/core":   nil,
	"internal/kvmx86": nil,
}

func TestConsumersAreBackendNeutral(t *testing.T) {
	const root = "../.."
	checked := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		checked[rel] = true
		allowed := allowedBackendImports[rel]
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if !contains(backendPkgs, ip) || contains(allowed, ip) {
				continue
			}
			t.Errorf("%s imports backend %s: only the root kvmarm package may name a concrete backend; use kvmarm/internal/hv", path, ip)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guard against the walk silently missing the tree.
	for _, dir := range []string{".", "internal/bench", "internal/workloads", "internal/fleet", "internal/vhe", "cmd/kvmarm-bench"} {
		if !checked[dir] {
			t.Errorf("neutrality lint did not visit %s", dir)
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

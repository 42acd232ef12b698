package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance identifies what produced a result, so numbers from different
// hosts or sources are never compared by mistake.
func provenance(workload string, seed int64) map[string]any {
	rev, src := sourceIdentity()
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"git_rev":       rev,
		"source_sha256": src,
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// sourceIdentity returns the git revision of the tree the benchmark runs
// from ("none" outside a git work tree) and a SHA-256 over the tree's Go
// sources and module files, which identifies an exported checkout too.
func sourceIdentity() (rev, src string) {
	rev = "none"
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		rev = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
			rev = ref
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				rev = strings.TrimSpace(string(b))
			} else if b, err := os.ReadFile(".git/packed-refs"); err == nil {
				for _, line := range strings.Split(string(b), "\n") {
					if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
						rev = f[0]
					}
				}
			}
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "digests.json") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return rev, hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

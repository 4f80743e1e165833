package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostFingerprint identifies where and on what a result was measured, so
// that results from different hosts or sources are never paired: CPU
// model, nproc, GOMAXPROCS, worker count, Go version, the git revision the
// binary was built from (when the build saw one) and a hash of the
// repository's sources (always available, also in an export without git).
func hostFingerprint(workers int, root string) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d workers=%d go=%s rev=%s src=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(),
		gitRevision(), sourceDigest(root)[:16])
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

func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the path and content of every Go source, go.mod and
// GOLDEN.sha256 under root, skipping hidden directories such as the build
// directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "GOLDEN.sha256" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown-sources"
	}
	return hex.EncodeToString(h.Sum(nil))
}

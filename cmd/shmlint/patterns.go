package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"shmgpu/internal/analysis/load"
)

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves package patterns: "./..." (the whole module),
// "./x/..." (a subtree), "./x" (one directory), or a plain import path.
func expandPatterns(loader *load.Loader, modulePath string, patterns []string) ([]string, error) {
	all, err := loader.Walk()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := importPathFor(modulePath, strings.TrimSuffix(pat, "/..."))
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
				}
			}
		default:
			add(importPathFor(modulePath, pat))
		}
	}
	return out, nil
}

func importPathFor(modulePath, pat string) string {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "" || pat == "." {
		return modulePath
	}
	if pat == modulePath || strings.HasPrefix(pat, modulePath+"/") {
		return pat
	}
	return modulePath + "/" + pat
}

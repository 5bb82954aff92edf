// Command detmap is a repo-local vet pass: it flags `for … range` over a
// map inside determinism-critical functions — fingerprinting,
// canonicalization, golden/rendered output — where Go's randomized map
// iteration order would leak into bytes that tests and the
// content-addressed caches pin exactly.
//
// A function is determinism-critical when its name matches
// (?i)fingerprint|canonical|golden|render|repair|build|generate, or it is
// a String method (the repo's CLI goldens are built from String
// renderings; repair synthesis and mutation must emit identical candidate
// orders and bytes on every run — suggested fixes are content-addressed
// and golden-pinned; test generation must yield the same test, and so the
// same fingerprint, for the same cycle on every run).
// Two escapes keep the pass precise:
//
//   - The collect-then-sort idiom is exempt: a range statement followed
//     (later in the same enclosing block) by a call into package sort is
//     the standard deterministic pattern and passes.
//   - An explicit `//detmap:ignore` comment on the line of (or the line
//     before) the range statement suppresses the finding, for ranges whose
//     order provably cannot escape (e.g. filling another map).
//
// Usage: go run ./ci/detmap ./...
//
// Only packages named on the command line are checked (dependencies are
// loaded for type information only). Test files are skipped: goldens are
// compared in tests, not produced by them. Exit status 1 means findings.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	findings, err := check(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "detmap:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detmap: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// listedPackage is the subset of `go list -json` output detmap consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// criticalName matches determinism-critical function names.
var criticalName = regexp.MustCompile(`(?i)fingerprint|canonical|golden|render|repair|build|generate`)

// check runs the pass over the packages matched by patterns (default
// ./...) and returns the findings, sorted by position.
func check(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by import path, feeds the
	// gc importer so the target packages type-check without x/tools.
	exports := make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("detmap: no export data for %q", path)
		}
		return os.Open(f)
	}

	fset := token.NewFileSet()
	var findings []string
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		fs, err := checkPackage(fset, p, lookup)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		findings = append(findings, fs...)
	}
	sort.Strings(findings)
	return findings, nil
}

// listPackages shells out to the go command for the package graph with
// export data compiled (-export forces .a files into the build cache).
func listPackages(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one package, then walks every
// determinism-critical function for map ranges.
func checkPackage(fset *token.FileSet, p *listedPackage, lookup func(string) (io.ReadCloser, error)) ([]string, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, err
	}

	var findings []string
	for _, f := range files {
		ignored := ignoreLines(fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !critical(fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := info.Types[rs.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				pos := fset.Position(rs.Pos())
				if ignored[pos.Line] || ignored[pos.Line-1] {
					return true
				}
				if sortedAfter(fd.Body, rs) {
					return true
				}
				findings = append(findings,
					fmt.Sprintf("%s:%d: range over map in determinism-critical func %s (collect keys and sort, or //detmap:ignore)",
						relPath(pos.Filename), pos.Line, fd.Name.Name))
				return true
			})
		}
	}
	return findings, nil
}

// critical reports whether the function's output is determinism-critical:
// a name matching the pattern, or any String method.
func critical(fd *ast.FuncDecl) bool {
	if criticalName.MatchString(fd.Name.Name) {
		return true
	}
	return fd.Recv != nil && fd.Name.Name == "String"
}

// ignoreLines collects the lines carrying a //detmap:ignore comment.
func ignoreLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detmap:ignore") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// sortedAfter reports whether some statement after the range statement
// (in any block of the enclosing function body that contains it) calls
// into package sort — the collect-then-sort idiom.
func sortedAfter(body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	found := false
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		idx := -1
		for i, st := range stmts {
			if containsNode(st, rs) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		for _, st := range stmts[idx+1:] {
			if callsSort(st) {
				found = true
				return
			}
		}
		// The range may sit in a nested block (if/for/block); a sort call
		// after it inside that block counts too.
		if stmts[idx] != ast.Stmt(rs) {
			ast.Inspect(stmts[idx], func(n ast.Node) bool {
				if found {
					return false
				}
				if b, ok := n.(*ast.BlockStmt); ok && b != nil && containsNode(b, rs) {
					walk(b.List)
					return false
				}
				return true
			})
		}
	}
	walk(body.List)
	return found
}

// containsNode reports whether node target lies within root.
func containsNode(root ast.Node, target ast.Node) bool {
	if root == nil {
		return false
	}
	return root.Pos() <= target.Pos() && target.End() <= root.End()
}

// callsSort reports whether the statement contains any sort.* call.
func callsSort(st ast.Stmt) bool {
	calls := false
	ast.Inspect(st, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sort" {
			calls = true
			return false
		}
		return true
	})
	return calls
}

// relPath renders a finding path relative to the working directory.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}

// Package load parses and type-checks one package for the condisc-vet
// analyzers without depending on golang.org/x/tools/go/packages: the
// package comes from source (go/parser, go/types), and every import,
// stdlib and in-module alike, from the build cache's export data via
// the stdlib gc importer. That is the division of labour of a
// `go vet -vettool` unit check; the vet tool gets its export files from
// cmd/go, and Dir (for the analyzer self-tests) asks `go list -export`.
package load

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
	"sort"
	"strconv"
	"strings"
)

// Source is one parsed, type-checked package.
type Source struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Parse parses the named files with their comments (the analyzers read
// //condisc: directives). The result is not type-checked yet.
func Parse(filenames []string) (*Source, error) {
	src := &Source{Fset: token.NewFileSet()}
	for _, name := range filenames {
		f, err := parser.ParseFile(src.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		src.Files = append(src.Files, f)
	}
	return src, nil
}

// Check type-checks the parsed files as package importPath. exportFile
// names the export data file of an imported package, or "" if it has
// none. The first type error fails the check.
func (src *Source) Check(importPath string, exportFile func(path string) string) error {
	imp := importer.ForCompiler(src.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exportFile(path)
		if file == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
	src.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErr error
	conf := types.Config{Importer: imp, Error: func(err error) {
		if typeErr == nil {
			typeErr = err
		}
	}}
	src.Pkg, _ = conf.Check(importPath, src.Fset, src.Files, src.Info)
	if typeErr != nil {
		return fmt.Errorf("load: type errors in %s: %v", importPath, typeErr)
	}
	return nil
}

// Dir parses every .go file in dir (a testdata exemplar package) and
// type-checks it under the given import path — the path chooses which
// package-scoped analyzers consider the package in scope. The imports'
// export data comes from `go list -export`, run in dir.
func Dir(dir, importPath string) (*Source, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no .go files in %s", dir)
	}
	src, err := Parse(files)
	if err != nil {
		return nil, err
	}
	exports, err := listExports(dir, src.Files)
	if err != nil {
		return nil, err
	}
	if err := src.Check(importPath, func(path string) string { return exports[path] }); err != nil {
		return nil, err
	}
	return src, nil
}

// listExports runs `go list -export -deps` in dir over the files'
// imports and maps each listed import path to its export data file.
func listExports(dir string, files []*ast.File) (map[string]string, error) {
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports = append(imports, path)
		}
	}
	exports := map[string]string{}
	if len(imports) == 0 {
		return exports, nil
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, imports...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list: %v\n%s", err, stderr.String())
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var m struct{ ImportPath, Export string }
		if err := dec.Decode(&m); err == io.EOF {
			return exports, nil
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		exports[m.ImportPath] = m.Export
	}
}

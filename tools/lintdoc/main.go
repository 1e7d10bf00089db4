// Command lintdoc fails when a package exports an identifier without a
// doc comment. CI runs it over every package under internal/ — the
// algorithmic core, the index, snapshot, serving, sharding and
// observability layers, the bitset, stats, datagen and experiments
// helpers, and the commands' shared flag layer (cli) — so their
// contracts (sorted views, no-mutate rules, estimator guarantees, wire
// formats) stay written down.
//
// Usage:
//
//	go run ./tools/lintdoc ./internal/graph ./internal/quasiclique
//
// A declaration group (var/const block) counts as documented when the
// group has a doc comment, matching godoc's rendering. Test files are
// skipped.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: lintdoc <package-dir> [package-dir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		missing, err := lintDir(strings.TrimPrefix(dir, "./"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "lintdoc:", err)
			os.Exit(2)
		}
		for _, m := range missing {
			fmt.Println(m)
		}
		bad += len(missing)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "lintdoc: %d exported identifier(s) missing doc comments\n", bad)
		os.Exit(1)
	}
}

// lintDir parses every non-test Go file of a directory and returns one
// "file:line: name" entry per undocumented exported declaration.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "function", funcName(d))
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return missing, nil
}

// funcName renders "Recv.Name" for methods, "Name" otherwise.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// lintGenDecl checks type/const/var declarations. A spec inside a
// parenthesized group passes when either the spec or the group carries
// a doc comment.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	kind := map[token.Token]string{
		token.TYPE:  "type",
		token.CONST: "const",
		token.VAR:   "var",
	}[d.Tok]
	if kind == "" {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
				report(s.Pos(), kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
					report(name.Pos(), kind, name.Name)
				}
			}
		}
	}
}

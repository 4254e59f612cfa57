package ftlhammer

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sourceRoots are the directories whose subdirectories hold the repo's
// non-test packages.
var sourceRoots = []string{"internal", "cmd", "examples"}

// sourcePackages parses every non-test package under internal/, cmd/ and
// examples/, comments included, keyed by its directory.
func sourcePackages(t *testing.T) map[string]*ast.Package {
	t.Helper()
	out, err := parseSourceTree(".")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parseSourceTree is sourcePackages for the tree at root, keyed by
// directory relative to root.
func parseSourceTree(root string) (map[string]*ast.Package, error) {
	out := map[string]*ast.Package{}
	for _, parent := range sourceRoots {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if err := parsePackage(root, filepath.Join(parent, e.Name()), out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// parsePackage parses the non-test files of the package in root/dir,
// comments included, into out[dir]. A directory without Go files adds
// nothing.
func parsePackage(root, dir string, out map[string]*ast.Package) error {
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("%s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		out[dir] = pkg
	}
	return nil
}

// constStrings collects a package's string-literal constants (name → value).
func constStrings(pkg *ast.Package) map[string]string {
	consts := map[string]string{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if v, err := strconv.Unquote(lit.Value); err == nil {
							consts[name.Name] = v
						}
					}
				}
			}
		}
	}
	return consts
}

// TestDocsTrackCode is the docs-drift gate: every observability event kind
// registered anywhere in the tree (obs.RegisterEventKind's first argument,
// resolved through Ev* constants) must be documented in docs/METRICS.md,
// docs/FAULTS.md, docs/DEFENSES.md, docs/ATTACKS.md or docs/VICTIMS.md;
// every metric series name the code
// creates (Counter/Gauge/Histogram first arguments, including obs.L labels
// and the obs.go `add` helper idiom) must appear in docs/METRICS.md; and
// every exported fault kind must be documented in docs/FAULTS.md. Adding
// an event kind, a metric series or a fault kind without documenting it
// fails CI. (Series built from non-constant names escape the lint; keep
// registrations literal.)
func TestDocsTrackCode(t *testing.T) {
	metricsDoc, err := os.ReadFile(filepath.Join("docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	faultsDoc, err := os.ReadFile(filepath.Join("docs", "FAULTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	defensesDoc, err := os.ReadFile(filepath.Join("docs", "DEFENSES.md"))
	if err != nil {
		t.Fatal(err)
	}
	attacksDoc, err := os.ReadFile(filepath.Join("docs", "ATTACKS.md"))
	if err != nil {
		t.Fatal(err)
	}
	victimsDoc, err := os.ReadFile(filepath.Join("docs", "VICTIMS.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs := string(metricsDoc) + string(faultsDoc) + string(defensesDoc) +
		string(attacksDoc) + string(victimsDoc)

	eventKinds := map[string]string{} // kind → declaring dir
	series := map[string]string{}     // metric name → declaring dir
	var faultKinds []string
	for dir, pkg := range sourcePackages(t) {
		consts := constStrings(pkg)
		// resolveString reduces a metric/event name argument to its string
		// value: a literal, a string constant, or an obs.L("name", ...) call.
		resolveString := func(arg ast.Expr) (string, bool) {
			switch a := arg.(type) {
			case *ast.BasicLit:
				if a.Kind == token.STRING {
					if v, err := strconv.Unquote(a.Value); err == nil {
						return v, true
					}
				}
			case *ast.Ident:
				if v, ok := consts[a.Name]; ok {
					return v, true
				}
			case *ast.CallExpr:
				name := ""
				switch fun := a.Fun.(type) {
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				case *ast.Ident:
					name = fun.Name
				}
				if name == "L" && len(a.Args) > 0 {
					if lit, ok := a.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if v, err := strconv.Unquote(lit.Value); err == nil {
							return v, true
						}
					}
				}
			}
			return "", false
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := ""
				switch fun := call.Fun.(type) {
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				case *ast.Ident:
					callee = fun.Name
				}
				if len(call.Args) == 0 {
					return true
				}
				switch callee {
				case "RegisterEventKind":
					switch arg := call.Args[0].(type) {
					case *ast.BasicLit, *ast.Ident:
						if v, ok := resolveString(arg); ok {
							eventKinds[v] = dir
						} else {
							t.Errorf("%s: RegisterEventKind with an unresolvable kind argument", dir)
						}
					default:
						t.Errorf("%s: RegisterEventKind with a non-constant kind argument", dir)
					}
				case "Counter", "Gauge", "Histogram", "add":
					// "add" is the obs.go helper idiom wrapping r.Counter.
					if v, ok := resolveString(call.Args[0]); ok {
						series[v] = dir
					}
				}
				return true
			})
		}
		if dir == filepath.Join("internal", "faults") {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.CONST {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							if strings.HasPrefix(name.Name, "Kind") && ast.IsExported(name.Name) {
								faultKinds = append(faultKinds, name.Name)
							}
						}
					}
				}
			}
		}
	}

	if len(eventKinds) == 0 {
		t.Fatal("found no RegisterEventKind calls; the lint is miswired")
	}
	var kinds []string
	for k := range eventKinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if !strings.Contains(docs, k) {
			t.Errorf("event kind %q (registered in %s) is documented in none of docs/METRICS.md, docs/FAULTS.md, docs/DEFENSES.md, docs/ATTACKS.md, docs/VICTIMS.md", k, eventKinds[k])
		}
	}

	if len(series) < 20 {
		t.Fatalf("found only %d metric series registrations; the series lint is miswired", len(series))
	}
	var names []string
	for s := range series {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		if !strings.Contains(string(metricsDoc), s) {
			t.Errorf("metric series %q (created in %s) is not documented in docs/METRICS.md", s, series[s])
		}
	}

	if len(faultKinds) == 0 {
		t.Fatal("found no exported fault kinds in internal/faults; the lint is miswired")
	}
	sort.Strings(faultKinds)
	for _, k := range faultKinds {
		if !strings.Contains(string(faultsDoc), k) {
			t.Errorf("fault kind %s is not documented in docs/FAULTS.md", k)
		}
	}
}

// TestSnapshotFormatVersionDocumented is the snapshot-versioning gate:
// the current snapshot.FormatVersion must have a "Version N" entry in
// docs/REPLAY.md's version history. Bumping the format without
// documenting what changed fails CI.
func TestSnapshotFormatVersionDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "snapshot"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	version := ""
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if name.Name != "FormatVersion" || i >= len(vs.Values) {
							continue
						}
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.INT {
							version = lit.Value
						}
					}
				}
			}
		}
	}
	if version == "" {
		t.Fatal("cannot find the snapshot.FormatVersion integer constant; the lint is miswired")
	}
	doc, err := os.ReadFile(filepath.Join("docs", "REPLAY.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "Version "+version) {
		t.Errorf("snapshot.FormatVersion is %s but docs/REPLAY.md has no \"Version %s\" history entry", version, version)
	}
}

// TestEveryPackageHasDocComment is the doc-lint gate: every package under
// internal/, cmd/ and examples/ must carry a package-level doc comment
// (godoc convention: a comment block immediately above a `package` clause
// in one of its files, conventionally doc.go). CI runs this via `go test`;
// a new package without documentation fails the build.
func TestEveryPackageHasDocComment(t *testing.T) {
	for dir, pkg := range sourcePackages(t) {
		documented := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s (%s) has no package doc comment; add a doc.go", pkg.Name, dir)
		}
	}
}

// TestEveryInternalPackageHasDocFile tightens the gate for internal/:
// the package comment must live in a dedicated doc.go (one predictable
// place to read and review) and must be non-trivial — a bare
// "Package x does x." stub does not document a subsystem.
func TestEveryInternalPackageHasDocFile(t *testing.T) {
	const minDocLen = 120 // characters of doc text, not counting the package clause
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		path := filepath.Join("internal", e.Name(), "doc.go")
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("internal/%s has no parseable doc.go: %v", e.Name(), err)
			continue
		}
		doc := ""
		if f.Doc != nil {
			doc = strings.TrimSpace(f.Doc.Text())
		}
		if len(doc) < minDocLen {
			t.Errorf("%s: package comment is %d characters, want a real package doc (>= %d)",
				path, len(doc), minDocLen)
		}
	}
}

// TestDocsIndexComplete is the docs-reachability gate: every page under
// docs/ must be linked from the docs index (docs/README.md), and the
// index itself must be linked from the top-level README. A doc nobody can
// navigate to is a doc nobody reads — adding a docs page without indexing
// it fails CI.
func TestDocsIndexComplete(t *testing.T) {
	index, err := os.ReadFile(filepath.Join("docs", "README.md"))
	if err != nil {
		t.Fatalf("docs/README.md (the docs index) is missing: %v", err)
	}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == "README.md" || !strings.HasSuffix(name, ".md") {
			continue
		}
		if !strings.Contains(string(index), name) {
			t.Errorf("docs/%s is not linked from the docs index (docs/README.md)", name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), "docs/README.md") {
		t.Error("top-level README.md does not link the docs index (docs/README.md)")
	}
}

// TestAttackAPIDocumented is the attack-surface doc gate: every exported
// interface of internal/attack (the composable pipeline's extension
// points) and every event kind it registers (Ev* string constants) must
// be documented in docs/ATTACKS.md. Adding a pipeline stage or an attack
// event without documenting it fails CI.
func TestAttackAPIDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "ATTACKS.md"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "attack"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ifaces, kinds []string
	for _, pkg := range pkgs {
		for name, v := range constStrings(pkg) {
			if strings.HasPrefix(name, "Ev") && ast.IsExported(name) {
				kinds = append(kinds, v)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ast.IsExported(ts.Name.Name) {
						continue
					}
					if _, ok := ts.Type.(*ast.InterfaceType); ok {
						ifaces = append(ifaces, ts.Name.Name)
					}
				}
			}
		}
	}
	if len(ifaces) < 3 {
		t.Fatalf("found only %d exported interfaces in internal/attack; the lint is miswired", len(ifaces))
	}
	if len(kinds) < 2 {
		t.Fatalf("found only %d exported event-kind constants in internal/attack; the lint is miswired", len(kinds))
	}
	sort.Strings(ifaces)
	sort.Strings(kinds)
	for _, name := range ifaces {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("exported attack interface %s is not documented in docs/ATTACKS.md", name)
		}
	}
	for _, k := range kinds {
		if !strings.Contains(string(doc), "`"+k+"`") {
			t.Errorf("attack event kind %q is not documented in docs/ATTACKS.md", k)
		}
	}
}

// retiredPackages are internal packages deleted on purpose. The stale-API
// gate treats each as named but gone even once no doc names
// internal/<pkg> any more, so a backticked `<pkg>.X` into one always
// fails.
var retiredPackages = []string{"core"}

// TestDocsReferenceLiveAPI is the stale-API gate. In README.md, DESIGN.md,
// EXPERIMENTS.md and docs/*.md, every internal/<pkg> path must exist, and
// every backticked `<pkg>.<Exported>` whose <pkg> is an internal package
// must name a top-level identifier that package declares. A package the
// docs still name as internal/<pkg> after it was deleted, or one listed
// in retiredPackages, counts as internal, so references into it fail too.
// Renaming or deleting an API without updating the docs that name it
// fails CI.
func TestDocsReferenceLiveAPI(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	pages, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, pages...)

	// Top-level identifiers per internal package (nil: named but gone).
	decls := map[string]map[string]bool{}
	for dir, pkg := range sourcePackages(t) {
		if filepath.Dir(dir) != "internal" {
			continue
		}
		names := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
		decls[filepath.Base(dir)] = names
	}
	addRetired(decls)
	pathRe := regexp.MustCompile(`internal/([a-z0-9]+)`)
	texts := map[string]string{}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		texts[name] = string(raw)
		for _, m := range pathRe.FindAllStringSubmatch(string(raw), -1) {
			if decls[m[1]] == nil {
				decls[m[1]] = nil
				t.Errorf("%s names internal/%s, which does not exist", name, m[1])
			}
		}
	}
	refs := 0
	for _, name := range files {
		n, stale := staleAPIRefs(decls, texts[name])
		refs += n
		for _, msg := range stale {
			t.Errorf("%s: %s", name, msg)
		}
	}
	if refs < 50 {
		t.Fatalf("found only %d internal API references in the docs; the lint is miswired", refs)
	}
}

// TestDocsReferenceLiveAPIFlagsRetiredPackage is the gate's negative
// case: no doc names internal/core, yet a backticked `core.X` still
// fails, because core is in retiredPackages.
func TestDocsReferenceLiveAPIFlagsRetiredPackage(t *testing.T) {
	decls := map[string]map[string]bool{"attack": {"Campaign": true}}
	addRetired(decls)
	refs, stale := staleAPIRefs(decls, "Run `attack.Campaign`, not `core.Campaign`.\n")
	if refs != 2 {
		t.Fatalf("counted %d internal references, want 2", refs)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "core.Campaign") {
		t.Fatalf("stale references %q, want only core.Campaign", stale)
	}
}

// addRetired marks each retired package as named but gone, unless a
// package of that name exists again.
func addRetired(decls map[string]map[string]bool) {
	for _, pkg := range retiredPackages {
		if _, ok := decls[pkg]; !ok {
			decls[pkg] = nil
		}
	}
}

// staleAPIRefs scans a Markdown text's inline code spans for
// `<pkg>.<Exported>` references into internal packages. It returns how
// many it found and one message per reference whose identifier the
// package does not declare. decls maps each internal package to its
// top-level identifiers (nil: named but gone).
func staleAPIRefs(decls map[string]map[string]bool, text string) (refs int, stale []string) {
	spanRe := regexp.MustCompile("`[^`\n]+`")
	refRe := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
	// Fenced code blocks are not inline spans; drop them so their
	// backticks cannot pair up with prose.
	var prose []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, line)
		}
	}
	for _, span := range spanRe.FindAllString(strings.Join(prose, "\n"), -1) {
		for _, m := range refRe.FindAllStringSubmatch(span, -1) {
			names, internal := decls[m[1]]
			if !internal {
				continue
			}
			refs++
			if !names[m[2]] {
				stale = append(stale, fmt.Sprintf("%s names %s.%s, which internal/%s does not declare", span, m[1], m[2], m[1]))
			}
		}
	}
	return refs, stale
}

// TestVictimsAPIDocumented is the victim-zoo doc gate: every exported
// type of internal/victims (the victim stacks, their detail structs,
// and the churn driver) and every event kind it registers (Ev* string
// constants) must be documented in docs/VICTIMS.md. Adding a victim or
// a victim event without documenting it fails CI.
func TestVictimsAPIDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "VICTIMS.md"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "victims"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var types, kinds []string
	for _, pkg := range pkgs {
		for name, v := range constStrings(pkg) {
			if strings.HasPrefix(name, "Ev") && ast.IsExported(name) {
				kinds = append(kinds, v)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if ok && ast.IsExported(ts.Name.Name) {
						types = append(types, ts.Name.Name)
					}
				}
			}
		}
	}
	if len(types) < 5 {
		t.Fatalf("found only %d exported types in internal/victims; the lint is miswired", len(types))
	}
	if len(kinds) < 1 {
		t.Fatalf("found only %d exported event-kind constants in internal/victims; the lint is miswired", len(kinds))
	}
	sort.Strings(types)
	sort.Strings(kinds)
	for _, name := range types {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("exported victims type %s is not documented in docs/VICTIMS.md", name)
		}
	}
	for _, k := range kinds {
		if !strings.Contains(string(doc), "`"+k+"`") {
			t.Errorf("victims event kind %q is not documented in docs/VICTIMS.md", k)
		}
	}
}

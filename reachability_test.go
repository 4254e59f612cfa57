package ftlhammer

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// modulePath is the import-path prefix of the packages under internal/.
const modulePath = "ftlhammer/"

// reachabilityAllowlist names declarations that no non-test file reaches,
// and exported fields that no non-test file sets, but that stay, each with
// the reason. Keys are the package directory (internal/ dropped), then the
// receiver or struct type for a method or field, then the name:
// "dram.Module.OnFlip".
var reachabilityAllowlist = map[string]string{
	"attack.Result.Stealthy":       "part of the pipeline Result that docs/ATTACKS.md documents",
	"dram.MitNone":                 "the zero MitigationMode: a Config that sets no mitigation runs unprotected",
	"dram.Config.Boosts":           digestBound,
	"dram.Config.ECCScrub":         digestBound,
	"dram.MapperConfig.XorChannel": digestBound,
	"dram.Module.OnFlip":           "the flip-provenance hook that ROADMAP item 4 builds on",
	"dram.Module.ResetStats": "zeroes the counters and the flip log so dram's tests measure one " +
		"phase of a module; before/after deltas at its 15 test calls would be more code",
	"dram.RowRangeBoost.FromRow": boostField,
	"dram.RowRangeBoost.Mult":    boostField,
	"dram.RowRangeBoost.ToRow":   boostField,
	"dram.TestbedGeometry": "the paper's §4.1 host (16 GiB DDR3) and the only geometry with " +
		"more than one channel, DIMM and rank, on which the mapper and next-event tests " +
		"decode addresses across every level",
	"ext4.FS.Chmod": "changes the mode bits the permission checks read, rewriting a " +
		"checksummed inode in place",
	"ext4.FS.ForbidsIndirect": "reports the §5 extent-only mount option, which makes the " +
		"attack's pointer blocks impossible",
	"ext4.FS.FreeDataBlocks": "counts free data blocks from the bitmap, how the allocator " +
		"tests find leaked blocks",
	"ext4.FS.Link": "the only way to give an inode a second name, so Unlink's link count " +
		"has a case where the inode stays",
	"ext4.FS.MetaChecksums": "reports whether inode records are CRC-protected, the §5 " +
		"checksum defence",
	"ext4.FS.ReadDir": "lists a directory, the model's only read of the namespace as " +
		"a whole, which the ext4 tests check after creates and removes",
	"ext4.FS.Rename": "the one operation that rewrites two directories at once, replacing " +
		"a file destination as POSIX does",
	"ext4.FS.Rmdir": "frees a directory's block and inode; without it a directory is " +
		"permanent once made",
	"ext4.JournalDevice.CrashAfter": "the only way to arm the journal's power cut " +
		"(crashAfter), which replay on mount recovers from",
	"ext4.JournalDevice.LogRange": "the journal's log extent on the device, which the " +
		"journal fuzz target and property test corrupt",
	"faults.Rule.After": "Injector.ConfigDigest mixes it into the fault plan's digest, which " +
		"the device's ConfigDigest and so every pinned state hash include; a change that " +
		"regenerates the goldens on purpose may delete it",
	"ftl.Config.L2PBase": digestBound,
	"nand.WithEndurance": "builds a wear-limited array; the wear model's bad-block state " +
		"is part of the snapshot format",
	"nvme.Costs.FlashPipelining": digestBound,
	"replay.Verify":              "the golden-replay CI gate's entry point (TestGoldenReplay)",
	"sim.RaceEnabled":            "the allocation pins skip under -race with it",
	"snapshot.Section.F64": "reads the F64 field type of the documented snapshot " +
		"format",
	"snapshot.Section.I64": "reads the I64 field type of the documented snapshot " +
		"format",
	"snapshot.SectionWriter.F64": "writes the F64 field type of the documented " +
		"snapshot format",
	"snapshot.SectionWriter.I64": "writes the I64 field type of the documented " +
		"snapshot format",
}

// digestBound and boostField are the reasons config fields nothing sets
// stay.
const (
	digestBound = "nvme.(*Device).ConfigDigest prints it with %+v, so deleting it " +
		"changes every pinned config digest and state hash; a change that regenerates " +
		"the goldens on purpose may delete it"
	boostField = "a field of the element type of dram.Config.Boosts, which stays " +
		"because " + digestBound
)

// exemptMethods are method names that code outside the tree calls through
// an interface: the standard library's fmt, errors, encoding, io, sort,
// container/heap and net/http interfaces.
var exemptMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteAt": true,
	"Seek": true, "ReadFrom": true, "WriteTo": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true,
}

// TestNoTestOnlyCode is the reachability gate. Code that only tests reach
// still has to be read, documented and kept compiling, so it fails when
//   - a package under internal/ is imported by no non-test file outside
//     itself;
//   - an exported top-level func, method, type, var or const under
//     internal/ is used by no non-test file outside its own declaration
//     (a type's methods are part of its declaration);
//   - an unexported func or method is used by no non-test file outside
//     its own declaration;
//   - an exported field of a struct under internal/ is set by no non-test
//     file;
//   - a reachabilityAllowlist entry is no longer declared, or no longer
//     needed.
//
// It type-checks every non-test package under internal/, cmd/, examples/
// and bench/, so a use is of one object, not of a name: a dead Stats
// method fails although a live Stats method exists. bench/ is its own
// module, but it compiles against internal/, so its uses count
// (ext4.NewMemDevice has no other caller). A method counts as used when
// its type implements an interface whose same-named method a non-test
// file uses, and methods of exemptMethods, which the standard library
// calls, pass by rule.
func TestNoTestOnlyCode(t *testing.T) {
	start := time.Now()
	for _, f := range unreachedCode(t, ".", reachabilityAllowlist) {
		t.Error(f)
	}
	t.Logf("type-checked and scanned the tree in %v", time.Since(start).Round(time.Millisecond))
}

// TestNoTestOnlyCodeFlagsPlantedCode is the gate's negative case, over a
// temporary tree: a package only a test imports, an export only a test
// uses, an uncalled unexported func, a dead method that shares a live
// method's name, exported fields never named, set only by a test or only
// read, and stale or unneeded allowlist entries each fail, while an
// export only bench/ calls, a method reached only through an interface,
// fields set by a literal key, a positional literal, an assignment, an
// increment, an address or a selector chain, an allowlisted export and a
// test file's own declarations pass.
func TestNoTestOnlyCodeFlagsPlantedCode(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/live/live.go": `package live

func Used() { helper() }

func helper() {}

func BenchOnly() {}

func TestOnly() {}

func Kept() {}

func orphan() {}

type Store struct{ n int }

func (s *Store) Stats() int { return s.n }

type Journal struct{ n int }

func (j *Journal) Stats() int { return j.n }

type Victim interface{ Arm() }

type Canary struct{}

func (Canary) Arm() {}

func Run(v Victim) { v.Arm() }

type Config struct {
	Keyed, Assigned, Counted, Addressed, Never, Unset, ReadOnly int

	Inner Inner
}

type Inner struct{ Enabled bool }

type Pair struct{ A, B int }
`,
		"internal/live/live_test.go": `package live

func init() { TestOnly(); unused(); new(Journal).Stats(); _ = Config{Unset: 1} }

func unused() {}
`,
		"internal/testonly/testonly.go": "package testonly\n\nfunc F() {}\n",
		"cmd/app/main.go": `package main

import "ftlhammer/internal/live"

func main() {
	live.Used()
	live.Run(live.Canary{})
	_ = new(live.Store).Stats()
	c := live.Config{Keyed: 1}
	c.Assigned = 2
	c.Counted++
	p := &c.Addressed
	c.Inner.Enabled = true
	_, _, _ = p, live.Pair{1, 2}, c.ReadOnly
}
`,
		"cmd/app/main_test.go": `package main

import "ftlhammer/internal/testonly"

func init() { testonly.F() }
`,
		"examples/.keep": "",
		"bench/main.go": `package main

import "ftlhammer/internal/live"

func main() { live.BenchOnly() }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{
		"live.Kept": "kept on purpose",
		"live.Gone": "deleted since",
		"live.Used": "called after all",
	}
	got := strings.Join(unreachedCode(t, root, allow), "\n")
	for _, want := range []string{
		"internal/testonly is imported by no non-test file",
		"live.TestOnly is used by no non-test file",
		"live.orphan is used by no non-test file",
		"live.Journal.Stats is used by no non-test file",
		"live.Config.Unset is set by no non-test file",
		"live.Config.Never is set by no non-test file",
		"live.Config.ReadOnly is set by no non-test file",
		`allowlist entry "live.Gone" names no declaration`,
		`allowlist entry "live.Used" is not needed`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("findings lack %q; got:\n%s", want, got)
		}
	}
	for _, clean := range []string{
		"BenchOnly", "Kept", "helper", "unused", "Store", "Canary", "Arm",
		"Keyed", "Assigned", "Counted", "Addressed", "Inner", "Pair",
	} {
		if strings.Contains(got, clean) {
			t.Errorf("findings name %s; got:\n%s", clean, got)
		}
	}
}

// typedPackage is one non-test package of the tree, parsed with the
// default build context's tags and type-checked.
type typedPackage struct {
	dir     string // relative to the root, slash-separated: "internal/dram"
	imports []string
	files   []*ast.File
	info    *types.Info
}

// loadTypedTree parses every non-test package under internal/, cmd/,
// examples/ and bench/ of the tree at root and type-checks them, the
// tree's own imports from source and the standard library's from the
// export data the go command builds.
func loadTypedTree(root string) (*token.FileSet, []*typedPackage, error) {
	dirs := []string{"bench"}
	for _, parent := range sourceRoots {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			return nil, nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, parent+"/"+e.Name())
			}
		}
	}
	fset := token.NewFileSet()
	byPath := map[string]*typedPackage{}
	std := map[string]bool{}
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(filepath.Join(root, dir), 0)
		if _, ok := err.(*build.NoGoError); ok {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		p := &typedPackage{dir: dir, imports: bp.Imports}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		for _, imp := range bp.Imports {
			if !strings.HasPrefix(imp, modulePath) {
				std[imp] = true
			}
		}
		byPath[modulePath+dir] = p
	}
	exports, err := stdExportData(std)
	if err != nil {
		return nil, nil, err
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})

	var ordered []*typedPackage
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p := byPath[path]
		if p == nil {
			return stdImporter.Import(path)
		}
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.dir, err)
		}
		checked[path] = pkg
		ordered = append(ordered, p)
		return pkg, nil
	}
	for _, dir := range dirs {
		if byPath[modulePath+dir] != nil {
			if _, err := imp(modulePath + dir); err != nil {
				return nil, nil, err
			}
		}
	}
	return fset, ordered, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExportData maps each of the given standard-library import paths to
// its export data file, which one go list call builds or finds in the
// build cache.
func stdExportData(paths map[string]bool) (map[string]string, error) {
	if len(paths) == 0 {
		return nil, nil
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, ok := strings.Cut(line, "=")
		if !ok || file == "" {
			return nil, fmt.Errorf("go list -export: no export data in %q", line)
		}
		exports[path] = file
	}
	return exports, nil
}

// declSite is one declaration the gate checks.
type declSite struct {
	key     string      // allowlist key: package, receiver or struct type, name
	pos     token.Pos   // the declared name
	extents []ast.Node  // uses inside these are the declaration's own
	field   bool        // an exported struct field, checked for writes
	method  *types.Func // a concrete method, which an interface call may reach
}

// within reports whether pos lies inside one of the declaration's
// extents.
func (d *declSite) within(pos token.Pos) bool {
	for _, n := range d.extents {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// unreachedCode type-checks the tree at root and returns one finding per
// declaration no product path reaches, and per exported field no product
// path sets, given the allowlist.
func unreachedCode(t *testing.T, root string, allow map[string]string) []string {
	t.Helper()
	fset, pkgs, err := loadTypedTree(root)
	if err != nil {
		t.Fatal(err)
	}

	var findings []string
	importers := map[string]int{} // internal package dir → importing packages
	for _, p := range pkgs {
		for _, imp := range p.imports {
			if d := strings.TrimPrefix(imp, modulePath); d != imp && d != p.dir {
				importers[d]++
			}
		}
	}
	for _, p := range pkgs {
		if path.Dir(p.dir) == "internal" && importers[p.dir] == 0 {
			findings = append(findings, fmt.Sprintf("%s is imported by no non-test file outside itself; delete it", p.dir))
		}
	}

	decls := map[types.Object]*declSite{}
	for _, p := range pkgs {
		collectDecls(p, decls)
	}
	reached := map[types.Object]bool{}
	ifaceMethods := map[*types.Func]bool{} // interface methods a non-test file uses
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if d := decls[obj]; d != nil && !d.field && !d.within(id.Pos()) {
				reached[obj] = true
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceMethods[fn] = true
				}
			}
		}
		markFieldWrites(p, reached)
	}

	declared := map[string]bool{}
	for obj, d := range decls {
		declared[d.key] = true
		ok := reached[obj] || (d.method != nil && implementsUsed(d.method, ifaceMethods))
		_, allowed := allow[d.key]
		at := fset.Position(d.pos)
		if rel, err := filepath.Rel(root, at.Filename); err == nil {
			at.Filename = rel
		}
		switch {
		case !ok && !allowed && d.field:
			findings = append(findings, fmt.Sprintf("%s: field %s is set by no non-test file; delete it, or allowlist it with a reason", at, d.key))
		case !ok && !allowed:
			findings = append(findings, fmt.Sprintf("%s: %s is used by no non-test file; delete it, or allowlist it with a reason", at, d.key))
		case ok && allowed:
			findings = append(findings, fmt.Sprintf("allowlist entry %q is not needed: a non-test file reaches it", d.key))
		}
	}
	for key := range allow {
		if !declared[key] {
			findings = append(findings, fmt.Sprintf("allowlist entry %q names no declaration", key))
		}
	}
	sort.Strings(findings)
	return findings
}

// collectDecls adds the checked declarations of one package to decls:
// exported top-level funcs, methods, types, vars and consts and exported
// struct fields under internal/, and unexported funcs and methods outside
// bench/.
func collectDecls(p *typedPackage, decls map[types.Object]*declSite) {
	internal := path.Dir(p.dir) == "internal"
	prefix := path.Base(p.dir) + "."
	add := func(name *ast.Ident, key string, extent ast.Node) *declSite {
		d := &declSite{key: prefix + key, pos: name.Pos(), extents: []ast.Node{extent}}
		decls[p.info.Defs[name]] = d
		return d
	}
	typeSites := map[string]*declSite{}
	var methods []*ast.FuncDecl
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					methods = append(methods, d)
				}
				name := d.Name.Name
				switch {
				case d.Recv != nil && exemptMethods[name]:
					continue
				case ast.IsExported(name) && internal:
				case !ast.IsExported(name) && p.dir != "bench" && name != "main" && name != "init" && name != "_":
				default:
					continue
				}
				key := name
				if d.Recv != nil {
					key = receiverType(d.Recv.List[0].Type) + "." + name
				}
				site := add(d.Name, key, d)
				if d.Recv != nil {
					site.method = p.info.Defs[d.Name].(*types.Func)
				}
			case *ast.GenDecl:
				if !internal {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if ast.IsExported(s.Name.Name) {
							typeSites[s.Name.Name] = add(s.Name, s.Name.Name, s)
						}
						addFields(p, s, prefix, decls)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if ast.IsExported(n.Name) {
								add(n, n.Name, s)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		if d := typeSites[receiverType(m.Recv.List[0].Type)]; d != nil {
			d.extents = append(d.extents, m)
		}
	}
}

// addFields adds the exported, named fields of the struct types in one
// type declaration to decls.
func addFields(p *typedPackage, s *ast.TypeSpec, prefix string, decls map[types.Object]*declSite) {
	ast.Inspect(s.Type, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			for _, name := range f.Names {
				if ast.IsExported(name.Name) {
					decls[p.info.Defs[name]] = &declSite{
						key: prefix + s.Name.Name + "." + name.Name, pos: name.Pos(), field: true,
					}
				}
			}
		}
		return true
	})
}

// markFieldWrites marks in written every struct field one package's files
// set: by a literal key or a positional literal, or on the selector chain
// of an assignment's, increment's or decrement's target or of an address
// taken with &, so c.FTL.Cache.Enabled = true sets FTL, Cache and Enabled.
func markFieldWrites(p *typedPackage, written map[types.Object]bool) {
	target := func(e ast.Expr) {
		for x, ok := e.(*ast.SelectorExpr); ok; x, ok = x.X.(*ast.SelectorExpr) {
			if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				written[sel.Obj()] = true
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				st, ok := p.info.Types[x].Type.Underlying().(*types.Struct)
				if !ok || len(x.Elts) == 0 {
					break
				}
				if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						written[st.Field(i)] = true
					}
				}
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if obj := p.info.Uses[kv.Key.(*ast.Ident)]; obj != nil {
							written[obj] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, e := range x.Lhs {
					target(e)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					target(x.X)
				}
			}
			return true
		})
	}
}

// implementsUsed reports whether the method's receiver type implements
// the interface of a used interface method of the same name.
func implementsUsed(m *types.Func, used map[*types.Func]bool) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for fn := range used {
		if fn.Name() != m.Name() {
			continue
		}
		iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

// receiverType names a method receiver's base type: "Module" for
// (m *Module).
func receiverType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

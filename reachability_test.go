package ftlhammer

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import-path prefix of the packages under internal/.
const modulePath = "ftlhammer/"

// reachabilityAllowlist names declarations that no non-test file reaches
// but that stay, each with the reason. Keys are the package directory
// (internal/ dropped), then the receiver type for a method, then the
// name: "dram.Module.OnFlip".
var reachabilityAllowlist = map[string]string{
	"attack.Result.Stealthy": "part of the pipeline Result that docs/ATTACKS.md documents",
	"dram.MitNone":           "the zero MitigationMode: a Config that sets no mitigation runs unprotected",
	"dram.Module.OnFlip":     "the flip-provenance hook that ROADMAP item 4 builds on",
	"dram.Module.ResetStats": "zeroes the counters and the flip log so dram's tests measure one " +
		"phase of a module; before/after deltas at its 15 test calls would be more code",
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
	"nand.WithEndurance": "builds a wear-limited array; the wear model's bad-block state " +
		"is part of the snapshot format",
	"replay.Verify":   "the golden-replay CI gate's entry point (TestGoldenReplay)",
	"sim.RaceEnabled": "the allocation pins skip under -race with it",
	"snapshot.Section.F64": "reads the F64 field type of the documented snapshot " +
		"format",
	"snapshot.Section.I64": "reads the I64 field type of the documented snapshot " +
		"format",
	"snapshot.SectionWriter.F64": "writes the F64 field type of the documented " +
		"snapshot format",
	"snapshot.SectionWriter.I64": "writes the I64 field type of the documented " +
		"snapshot format",
}

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
//     internal/ is named by no non-test file, apart from its own
//     declaration and method receivers;
//   - an unexported func or method is named by no non-test file of its
//     own package;
//   - a reachabilityAllowlist entry is no longer declared, or no longer
//     needed.
//
// It parses, without building, every non-test file under internal/,
// cmd/, examples/ and bench/. bench/ is its own module, but it compiles
// against internal/, so its calls count (ext4.NewMemDevice has no other
// caller). Methods of exemptMethods, which the standard library calls,
// pass by rule.
//
// The check is by name, not by type: a dead method that shares its name
// with a live one (a second Save, say) passes.
func TestNoTestOnlyCode(t *testing.T) {
	for _, f := range unreachedCode(t, ".", reachabilityAllowlist) {
		t.Error(f)
	}
}

// TestNoTestOnlyCodeFlagsPlantedCode is the gate's negative case, over a
// temporary tree: a package only a test imports, an export only a test
// names, an uncalled unexported func and stale or unneeded allowlist
// entries each fail, while an export only bench/ calls, an allowlisted
// one and a test file's own declarations pass.
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
`,
		"internal/live/live_test.go": `package live

func init() { TestOnly(); unused() }

func unused() {}
`,
		"internal/testonly/testonly.go": "package testonly\n\nfunc F() {}\n",
		"cmd/app/main.go": `package main

import "ftlhammer/internal/live"

func main() { live.Used() }
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
		"live.TestOnly is named by no non-test file",
		"live.orphan is named by no non-test file",
		`allowlist entry "live.Gone" names no declaration`,
		`allowlist entry "live.Used" is not needed`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("findings lack %q; got:\n%s", want, got)
		}
	}
	for _, clean := range []string{"BenchOnly", "Kept", "helper", "unused"} {
		if strings.Contains(got, clean) {
			t.Errorf("findings name %s; got:\n%s", clean, got)
		}
	}
}

// declSite is one top-level declaration the gate checks.
type declSite struct {
	key      string // allowlist key: package, receiver type, name
	dir      string
	name     string
	function bool // a func or method, as opposed to a type, var or const
	method   bool
	pos      string
}

// unreachedCode parses the tree at root and returns one finding per
// declaration no product path reaches, given the allowlist.
func unreachedCode(t *testing.T, root string, allow map[string]string) []string {
	t.Helper()
	pkgs, err := parseSourceTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := parsePackage(root, "bench", pkgs); err != nil {
		t.Fatal(err)
	}

	importers := map[string]int{} // internal package dir → importing files
	uses := map[string]int{}      // identifier → uses in any package
	localUses := map[string]int{} // dir + "." + identifier → uses in dir
	var decls []declSite
	for dir, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if d := strings.TrimPrefix(path, modulePath); d != path && d != dir {
					importers[d]++
				}
			}
			for _, decl := range f.Decls {
				decls = append(decls, declSites(root, dir, name, decl)...)
				for _, id := range namedIdents(decl) {
					uses[id]++
					localUses[dir+"."+id]++
				}
			}
		}
	}

	var findings []string
	for dir := range pkgs {
		if filepath.Dir(dir) == "internal" && importers[dir] == 0 {
			findings = append(findings, fmt.Sprintf("%s is imported by no non-test file outside itself; delete it", dir))
		}
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		var reached bool
		switch {
		case d.method && exemptMethods[d.name]:
			reached = true
		case ast.IsExported(d.name):
			if filepath.Dir(d.dir) != "internal" {
				continue
			}
			reached = uses[d.name] > 0
		case d.function:
			if d.dir == "bench" || d.name == "main" || d.name == "init" || d.name == "_" {
				continue
			}
			reached = localUses[d.dir+"."+d.name] > 0
		default:
			continue
		}
		_, allowed := allow[d.key]
		switch {
		case !reached && !allowed:
			findings = append(findings, fmt.Sprintf("%s: %s is named by no non-test file; delete it, or allowlist it with a reason", d.pos, d.key))
		case reached && allowed:
			findings = append(findings, fmt.Sprintf("allowlist entry %q is not needed: a non-test file names %s", d.key, d.name))
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

// declSites lists the checked declarations of one top-level decl in the
// given file of the package in root/dir.
func declSites(root, dir, file string, decl ast.Decl) []declSite {
	prefix := strings.TrimPrefix(dir, "internal"+string(filepath.Separator)) + "."
	rel, _ := filepath.Rel(root, file)
	site := func(name *ast.Ident, recv string, function bool) declSite {
		return declSite{
			key:      prefix + recv + name.Name,
			dir:      dir,
			name:     name.Name,
			function: function,
			method:   recv != "",
			pos:      rel,
		}
	}
	var out []declSite
	switch d := decl.(type) {
	case *ast.FuncDecl:
		recv := ""
		if d.Recv != nil && len(d.Recv.List) > 0 {
			recv = receiverType(d.Recv.List[0].Type) + "."
		}
		out = append(out, site(d.Name, recv, true))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, site(s.Name, "", false))
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, site(n, "", false))
				}
			}
		}
	}
	return out
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

// namedIdents returns the identifiers one top-level decl names, apart
// from the names it declares: its own name, its receiver (and, inside a
// method, the receiver's type), parameters, results, struct fields,
// interface methods, and variables it defines.
func namedIdents(decl ast.Decl) []string {
	skip := map[*ast.Ident]bool{}
	own := map[string]bool{}
	markFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				skip[n] = true
			}
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[d.Name.Name] = true
		markFields(d.Recv)
		if d.Recv != nil {
			for _, f := range d.Recv.List {
				own[receiverType(f.Type)] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[s.Name.Name] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					own[n.Name] = true
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncType:
			markFields(x.TypeParams)
			markFields(x.Params)
			markFields(x.Results)
		case *ast.StructType:
			markFields(x.Fields)
		case *ast.InterfaceType:
			markFields(x.Methods)
		case *ast.TypeSpec:
			skip[x.Name] = true
			markFields(x.TypeParams)
		case *ast.ValueSpec:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		}
		return true
	})
	var out []string
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] && !own[id.Name] {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}

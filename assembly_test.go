package ftlhammer

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"testing"
)

// TestOneDeviceBuilder is the assembly gate: fleet.DeviceSpec.Build is
// the only place a non-test file under internal/, cmd/ or examples/ may call
// nvme.New. A second assembly path is a second copy of the device's
// defaults, and copies drift; describe a new device as a DeviceSpec
// instead.
func TestOneDeviceBuilder(t *testing.T) {
	var calls []string
	for dir, pkg := range sourcePackages(t) {
		if dir == filepath.Join("internal", "fleet") {
			continue
		}
		for name, f := range pkg.Files {
			local := "" // the file's name for package nvme
			for _, imp := range f.Imports {
				if imp.Path.Value == `"ftlhammer/internal/nvme"` {
					local = "nvme"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			for _, decl := range f.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "New" {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						where := "a package-level declaration"
						if fd, ok := decl.(*ast.FuncDecl); ok {
							where = fd.Name.Name
						}
						calls = append(calls, fmt.Sprintf("%s: %s calls nvme.New", name, where))
					}
					return true
				})
			}
		}
	}
	sort.Strings(calls)
	for _, c := range calls {
		t.Errorf("%s; build the device from a fleet.DeviceSpec instead", c)
	}
}

package analysis

import (
	"go/ast"
	"go/types"
)

// CallPattern names a function or method whose error result must not be
// discarded. Recv is the bare receiver type name ("" for package-level
// functions); PkgPath is the defining package.
type CallPattern struct {
	PkgPath string
	Recv    string
	Name    string
}

// ErrDropConfig lists the must-check call set.
type ErrDropConfig struct {
	MustCheck []CallPattern
}

// DefaultErrDropConfig covers the operations whose silent failure
// corrupts a run without crashing it: chain/signing ops (a bad block
// would propagate unsigned garbage), plan decoding, JSON encoding, and
// CLI file writes.
func DefaultErrDropConfig() ErrDropConfig {
	return ErrDropConfig{MustCheck: []CallPattern{
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "NewSigner"},
		{PkgPath: "nwade/internal/chain", Recv: "Signer", Name: "Sign"},
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "Package"},
		{PkgPath: "nwade/internal/chain", Recv: "Chain", Name: "Append"},
		{PkgPath: "nwade/internal/chain", Recv: "Chain", Name: "Prepend"},
		{PkgPath: "nwade/internal/chain", Recv: "Chain", Name: "CheckContent"},
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "VerifySignature"},
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "VerifyRoot"},
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "VerifyLink"},
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "MerkleRoot"},
		{PkgPath: "nwade/internal/chain", Recv: "", Name: "BuildProof"},
		{PkgPath: "nwade/internal/plan", Recv: "", Name: "Decode"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "Encode"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "Decode"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "WriteFile"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "ReadFile"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "EncodeNet"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "DecodeNet"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "WriteNetFile"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "ReadNetFile"},
		{PkgPath: "nwade/internal/snap", Recv: "", Name: "ReadAnyFile"},
		{PkgPath: "nwade/internal/roadnet", Recv: "", Name: "New"},
		{PkgPath: "nwade/internal/roadnet", Recv: "", Name: "Restore"},
		{PkgPath: "nwade/internal/roadnet", Recv: "Network", Name: "Snapshot"},
		{PkgPath: "nwade/internal/roadnet", Recv: "State", Name: "Encode"},
		{PkgPath: "nwade/internal/roadnet", Recv: "", Name: "DecodeState"},
		{PkgPath: "nwade/internal/cliconf", Recv: "Flags", Name: "Build"},
		{PkgPath: "nwade/internal/cliconf", Recv: "", Name: "Load"},
		{PkgPath: "nwade/internal/cliconf", Recv: "", Name: "WriteCheckpoint"},
		{PkgPath: "nwade/internal/eval", Recv: "DirQueue", Name: "Complete"},
		{PkgPath: "nwade/internal/eval", Recv: "DirQueue", Name: "Release"},
		{PkgPath: "nwade/internal/eval", Recv: "DirQueue", Name: "Quarantine"},
		{PkgPath: "nwade/internal/serve", Recv: "", Name: "WriteJob"},
		{PkgPath: "nwade/internal/serve", Recv: "", Name: "ReadJob"},
		{PkgPath: "encoding/json", Recv: "Encoder", Name: "Encode"},
		{PkgPath: "encoding/json", Recv: "", Name: "Marshal"},
		{PkgPath: "os", Recv: "", Name: "WriteFile"},
	}}
}

// NewErrDrop builds the errdrop analyzer: it reports calls from the
// must-check set whose error result is discarded, either by using the
// call as a bare statement (including go/defer) or by assigning the
// error position to the blank identifier.
func NewErrDrop(cfg ErrDropConfig) *Analyzer {
	a := &Analyzer{
		Name: "errdrop",
		Doc:  "flags discarded error results from the configured must-check call set",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					reportDropped(pass, cfg, st.X)
				case *ast.GoStmt:
					reportDropped(pass, cfg, st.Call)
				case *ast.DeferStmt:
					reportDropped(pass, cfg, st.Call)
				case *ast.AssignStmt:
					reportBlanked(pass, cfg, st)
				}
				return true
			})
		}
	}
	return a
}

// reportDropped flags expr when it is a must-check call used as a bare
// statement.
func reportDropped(pass *Pass, cfg ErrDropConfig, expr ast.Expr) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return
	}
	if fn, pat := matchMustCheck(pass, cfg, call); fn != nil {
		pass.Reportf(call.Pos(), "error result of %s discarded; it must be checked", patString(pat))
	}
}

// reportBlanked flags assignments that send a must-check call's error
// result to the blank identifier.
func reportBlanked(pass *Pass, cfg ErrDropConfig, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn, pat := matchMustCheck(pass, cfg, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	res := sig.Results()
	for i := 0; i < res.Len() && i < len(st.Lhs); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(st.Pos(), "error result of %s assigned to _; it must be checked", patString(pat))
			return
		}
	}
}

// matchMustCheck resolves call's callee and matches it against the
// must-check set, returning the function object and pattern on a hit.
func matchMustCheck(pass *Pass, cfg ErrDropConfig, call *ast.CallExpr) (*types.Func, *CallPattern) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[fun.Sel]
	default:
		return nil, nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, nil
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	for i := range cfg.MustCheck {
		pat := &cfg.MustCheck[i]
		if pat.PkgPath == fn.Pkg().Path() && pat.Recv == recv && pat.Name == fn.Name() {
			return fn, pat
		}
	}
	return nil, nil
}

// patString renders a pattern for diagnostics.
func patString(p *CallPattern) string {
	if p.Recv != "" {
		return p.PkgPath + "." + p.Recv + "." + p.Name
	}
	return p.PkgPath + "." + p.Name
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

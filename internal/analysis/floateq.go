package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strings"
)

// NewFloatEq builds the floateq analyzer: it reports == and != between
// floating-point operands outside test files. Exact float equality is
// almost always a latent replay-breaker: a re-ordered reduction or a
// fused multiply-add changes the bit pattern without changing the math.
// Where exact equality is meant (a tie-break on bit-equal values), the
// site says so in a //lint:ignore floateq directive.
func NewFloatEq() *Analyzer {
	a := &Analyzer{
		Name: "floateq",
		Doc:  "flags ==/!= on floating-point operands",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			if strings.HasSuffix(pass.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				// Comparison against constant zero is exact in IEEE-754
				// and is the canonical division guard: allowed.
				if isZeroConst(pass, bin.X) || isZeroConst(pass, bin.Y) {
					return true
				}
				if isFloat(pass.Pkg.Info.TypeOf(bin.X)) || isFloat(pass.Pkg.Info.TypeOf(bin.Y)) {
					pass.Reportf(bin.Pos(),
						"%s on floating-point operands; compare with a tolerance, or give the reason exact equality is meant in a //lint:ignore floateq", bin.Op)
				}
				return true
			})
		}
	}
	return a
}

// isZeroConst reports whether expr is a compile-time constant equal to
// zero.
func isZeroConst(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

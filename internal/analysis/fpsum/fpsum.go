// Package fpsum defines the knnlint analyzer that guards the
// floating-point accumulation discipline: distance kernels and Regress
// folds stay bit-identical across serving shapes only because every
// reduction is a single accumulator taking sequential adds in a fixed
// order. The analyzer flags the two patterns that invite reassociation:
//
//   - multi-accumulator reductions: several float accumulators updated in
//     one loop and later combined (s0+s1+s2+s3) — the classic unrolling
//     "optimization" that changes the rounding of the result;
//   - map-order summation: a float accumulated across a map range, whose
//     iteration order varies run to run.
//
// points.SqL2, the one squared-L2 loop, is the sanctioned shape: ONE
// accumulator taking sequential adds.
package fpsum

import (
	"go/ast"
	"go/token"
	"go/types"

	"distknn/internal/analysis/knnlint"
)

// Analyzer implements the check.
var Analyzer = &knnlint.Analyzer{
	Name: "fpsum",
	Doc: "no multi-accumulator float reductions or map-order float summation " +
		"where sequential single-accumulator adds are load-bearing for " +
		"bit-identity",
	Run: run,
}

// scopePackages: the distance kernels and every package that folds
// per-shard float partials into an answer.
var scopePackages = []string{
	"internal/kmachine",
	"internal/core",
	"internal/metricindex",
	"internal/transport/tcp",
	"internal/points",
}

func run(pass *knnlint.Pass) error {
	inScope := false
	for _, s := range scopePackages {
		if knnlint.PkgPathHasSuffix(pass.Pkg.Path(), s) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn)
			}
		}
	}
	return nil
}

func checkFunc(pass *knnlint.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch loop := n.(type) {
		case *ast.RangeStmt:
			if isMapRange(pass, loop) {
				checkMapSum(pass, loop)
			}
			checkMultiAccum(pass, fn, loop.Body, loop.Pos())
		case *ast.ForStmt:
			checkMultiAccum(pass, fn, loop.Body, loop.Pos())
		}
		return true
	})
}

func isMapRange(pass *knnlint.Pass, rng *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapSum reports float accumulation inside a map-range body.
func checkMapSum(pass *knnlint.Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if obj := floatAccumTarget(pass, n); obj != nil {
			pass.Reportf(n.Pos(),
				"float accumulation in map-iteration order: summing %s across a map range is reassociation by another name; iterate sorted keys",
				obj.Name())
		}
		return true
	})
}

// checkMultiAccum reports >=2 float accumulators updated in one loop body
// that the surrounding function later adds to each other.
func checkMultiAccum(pass *knnlint.Pass, fn *ast.FuncDecl, body *ast.BlockStmt, loopPos token.Pos) {
	accums := map[types.Object]bool{}
	for _, stmt := range body.List {
		// Only direct statements of the loop body: accumulators in nested
		// loops belong to those loops.
		if obj := floatAccumTarget(pass, stmt); obj != nil {
			accums[obj] = true
		}
	}
	if len(accums) < 2 {
		return
	}
	// Combined later? Look for a + whose operand identifiers include two
	// distinct accumulators of this loop, anywhere in the function.
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			return true
		}
		distinct := map[types.Object]bool{}
		for _, leaf := range addLeaves(bin) {
			if id, ok := leaf.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && accums[obj] {
					distinct[obj] = true
				}
			}
		}
		if len(distinct) >= 2 {
			found = true
		}
		return true
	})
	if found {
		pass.Reportf(loopPos,
			"multi-accumulator float reduction: %d accumulators combined after the loop reassociate the sum; use one sequential accumulator (unroll loads, not adds)",
			len(accums))
	}
}

// floatAccumTarget returns the accumulated variable when n is a
// float-typed `x += e`, `x -= e`, or `x = x + e` / `x = e + x`.
func floatAccumTarget(pass *knnlint.Pass, n ast.Node) types.Object {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || !isFloat(obj.Type()) {
		return nil
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return obj
	case token.ASSIGN:
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return nil
		}
		for _, side := range []ast.Expr{bin.X, bin.Y} {
			if sid, ok := side.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(sid) == obj {
				return obj
			}
		}
	}
	return nil
}

// addLeaves flattens a tree of + into its operand expressions.
func addLeaves(e ast.Expr) []ast.Expr {
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		return append(addLeaves(bin.X), addLeaves(bin.Y)...)
	}
	return []ast.Expr{e}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

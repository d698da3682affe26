// Package lockio defines the knnlint analyzer that flags a mutex held
// across blocking network I/O or channel operations in the mesh/rejoin
// paths (internal/transport/tcp) — the PR 4 deadlock class: a lock that
// guards shared seat or peer state must never wait on a socket or an
// unbuffered channel, or one stuck peer wedges every path that needs the
// lock (including the eviction that would unstick it).
//
// The analysis is block-structured and per-function: it tracks which
// mutexes are held (x.Lock() .. x.Unlock(), with defer x.Unlock() holding
// to function end) and reports, inside held regions, calls that perform
// network I/O (net.Conn/net.Listener methods, net.Dial* and a net.Dialer's
// Dial/DialContext, io.Copy/ReadFull,
// wire frame I/O, Writer.EndFrame) and channel sends/receives. Function
// literals are analyzed as separate bodies: a goroutine spawned under a
// lock does not run under it.
package lockio

import (
	"go/ast"
	"go/types"

	"distknn/internal/analysis/knnlint"
)

// Analyzer implements the check.
var Analyzer = &knnlint.Analyzer{
	Name: "lockio",
	Doc: "no mutex held across blocking network I/O or channel operations in " +
		"the mesh/rejoin paths",
	Run: run,
}

// Scope: the real-socket transport, where the deadlock class lives.
var scopePackages = []string{"internal/transport/tcp"}

// blockingConnMethods are the net.Conn / net.Listener methods that can
// block on the peer. Close and the Set*Deadline family are quick and are
// exactly what a teardown path legitimately does under a lock.
var blockingConnMethods = map[string]bool{
	"Read": true, "Write": true, "Accept": true,
	"ReadFrom": true, "WriteTo": true,
}

// blockingDialerMethods are the net.Dialer methods that wait on a peer: a
// dial with no Timeout waits as long as the kernel's connect does.
var blockingDialerMethods = map[string]bool{"Dial": true, "DialContext": true}

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
				checkBody(pass, fn.Body)
			}
		}
	}
	return nil
}

// checkBody scans one function body (and, recursively with a fresh held
// set, every function literal inside it).
func checkBody(pass *knnlint.Pass, body *ast.BlockStmt) {
	scanStmts(pass, body.List, map[string]bool{})
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(pass, lit.Body)
			return false
		}
		return true
	})
}

// scanStmts walks a statement list in order, maintaining the set of held
// mutexes (keyed by the receiver expression text, e.g. "f.mu").
// Nested blocks inherit a copy of the held set, so a conditional unlock
// inside an if-branch does not end the critical section outside it.
func scanStmts(pass *knnlint.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, op := lockOp(s.X); key != "" {
				switch op {
				case "Lock", "RLock":
					held[key] = true
					continue
				case "Unlock", "RUnlock":
					delete(held, key)
					continue
				}
			}
		case *ast.DeferStmt:
			if key, op := lockOp(s.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
				continue // runs at return: the lock stays held for the scan
			}
		}
		if len(held) > 0 {
			reportBlocking(pass, stmt, held)
		}
		// Recurse into nested blocks with a copy of the held set.
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			scanStmts(pass, s.List, copySet(held))
		case *ast.IfStmt:
			scanIf(pass, s, held)
		case *ast.ForStmt:
			scanStmts(pass, s.Body.List, copySet(held))
		case *ast.RangeStmt:
			scanStmts(pass, s.Body.List, copySet(held))
		case *ast.SwitchStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					scanStmts(pass, c.Body, copySet(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					scanStmts(pass, c.Body, copySet(held))
				}
			}
		case *ast.SelectStmt:
			for _, cc := range s.Body.List {
				if c, ok := cc.(*ast.CommClause); ok {
					scanStmts(pass, c.Body, copySet(held))
				}
			}
		}
	}
}

func scanIf(pass *knnlint.Pass, s *ast.IfStmt, held map[string]bool) {
	scanStmts(pass, s.Body.List, copySet(held))
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		scanStmts(pass, e.List, copySet(held))
	case *ast.IfStmt:
		scanIf(pass, e, held)
	}
}

func copySet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// lockOp recognizes x.Lock/Unlock/RLock/RUnlock() on a sync.(RW)Mutex and
// returns the receiver's expression text plus the operation name.
func lockOp(e ast.Expr) (string, string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(sel.X), sel.Sel.Name
	}
	return "", ""
}

// reportBlocking inspects one statement (excluding nested blocks and
// function literals, which are handled by the scanners) for blocking
// operations and reports them against the held set.
func reportBlocking(pass *knnlint.Pass, stmt ast.Stmt, held map[string]bool) {
	heldNames := func() string {
		for k := range held {
			return k // one representative lock is plenty for the message
		}
		return ""
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			return false // scanned by the statement walkers
		case *ast.FuncLit:
			return false // separate execution; scanned with a fresh held set
		case *ast.SelectStmt:
			// A select with a default never blocks; one without is a
			// blocking channel operation. Its case bodies are scanned
			// separately by the statement walkers.
			hasDefault := false
			for _, cc := range n.Body.List {
				if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				pass.Reportf(n.Pos(), "select with no default while holding %s: a silent peer wedges every path that needs the lock", heldNames())
			}
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while holding %s: a blocked receiver wedges every path that needs the lock", heldNames())
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "channel receive while holding %s: a silent sender wedges every path that needs the lock", heldNames())
			}
		case *ast.CallExpr:
			if msg := blockingCall(pass, n); msg != "" {
				pass.Reportf(n.Pos(), "%s while holding %s: one stuck peer wedges every path that needs the lock", msg, heldNames())
			}
		}
		return true
	})
}

// blockingCall classifies a call as blocking network I/O, returning a
// description or "".
func blockingCall(pass *knnlint.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name

	// Package-level functions: net.Dial*, io.Copy/ReadFull/ReadAll,
	// wire.WriteFrame/ReadFrame/ReadFrameInto.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			switch path := pn.Imported().Path(); {
			case path == "net" && (name == "Dial" || name == "DialTimeout" || name == "Listen"):
				return "net." + name
			case path == "io" && (name == "Copy" || name == "ReadFull" || name == "ReadAll"):
				return "io." + name
			case knnlint.PkgPathHasSuffix(path, "internal/wire") &&
				(name == "WriteFrame" || name == "ReadFrame" || name == "ReadFrameInto"):
				return "wire." + name
			}
			return ""
		}
	}

	// Methods: blocking net.Conn/net.Listener calls, net.Dialer dials, and
	// Writer.EndFrame (which writes the frame to its destination socket).
	recv := pass.TypesInfo.TypeOf(sel.X)
	if recv == nil {
		return ""
	}
	if name == "EndFrame" && isWireWriter(recv) {
		return "Writer.EndFrame (socket write)"
	}
	if blockingDialerMethods[name] && isNetType(recv) {
		return "net.Dialer." + name
	}
	if blockingConnMethods[name] && isNetType(recv) {
		return "net connection " + name
	}
	return ""
}

func isNetType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

func isWireWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil &&
		knnlint.PkgPathHasSuffix(obj.Pkg().Path(), "internal/wire")
}

// lint:ignore suppression directives.
//
//	//lint:ignore analyzer[,analyzer...] reason
//	//lint:ignore all reason
//
// A directive suppresses matching diagnostics reported on its own line
// (trailing comment) or on the line immediately below (standalone
// comment line). The reason is mandatory and analyzer names must be
// real: a malformed directive is itself reported as a "lint" diagnostic
// so that a typo can never silently disable a gate.

package analysis

import (
	"go/token"
	"strings"
)

type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool // nil means "all"
}

// applySuppressions drops diagnostics covered by well-formed lint:ignore
// directives and appends a "lint" diagnostic for each malformed one.
func applySuppressions(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	byFile := make(map[string][]ignoreDirective)
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					text, ok := directiveText(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					dir, errMsg := parseIgnore(text)
					if errMsg != "" {
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "lint", Message: errMsg})
						continue
					}
					dir.pos = pos
					byFile[pos.Filename] = append(byFile[pos.Filename], dir)
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d, byFile[d.Pos.Filename]) {
			kept = append(kept, d)
		}
	}
	return append(kept, malformed...)
}

// directiveText extracts the payload of a "//lint:ignore" comment.
func directiveText(comment string) (string, bool) {
	rest, ok := strings.CutPrefix(comment, "//lint:ignore")
	if !ok {
		return "", false
	}
	// Require a word boundary: "//lint:ignoreX" is not a directive.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

func parseIgnore(text string) (ignoreDirective, string) {
	const usage = "malformed lint:ignore directive (want //lint:ignore analyzer[,analyzer] reason)"
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return ignoreDirective{}, usage
	}
	if fields[0] == "all" {
		return ignoreDirective{}, ""
	}
	names := make(map[string]bool)
	for _, name := range strings.Split(fields[0], ",") {
		if ByName(name) == nil {
			return ignoreDirective{}, "lint:ignore names unknown analyzer " + name
		}
		names[name] = true
	}
	return ignoreDirective{analyzers: names}, ""
}

func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.pos.Line != d.Pos.Line && dir.pos.Line != d.Pos.Line-1 {
			continue
		}
		if dir.analyzers == nil || dir.analyzers[d.Analyzer] {
			return true
		}
	}
	return false
}

package repl

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
)

func testEngine(t testing.TB) *engine.Engine {
	t.Helper()
	g, err := datagen.SocialNetwork(datagen.SocialConfig{
		NumVertices: 150, NumEdges: 500, Seed: 4, CommunityFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{})
}

// session runs the REPL over scripted input and returns the transcript.
func session(t *testing.T, input string) string {
	t.Helper()
	var out strings.Builder
	r := New(testEngine(t), strings.NewReader(input), &out)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestQueryExecution(t *testing.T) {
	out := session(t, "MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q);\n")
	if !strings.Contains(out, "count(DISTINCT p,q)") {
		t.Fatalf("missing column header:\n%s", out)
	}
	if !strings.Contains(out, "1 row(s)") {
		t.Fatalf("missing row count:\n%s", out)
	}
}

func TestMultiLineQuery(t *testing.T) {
	out := session(t, "MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB)\nRETURN COUNT(DISTINCT p,q);\n")
	if !strings.Contains(out, "...> ") {
		t.Fatalf("missing continuation prompt:\n%s", out)
	}
	if !strings.Contains(out, "1 row(s)") {
		t.Fatalf("query did not execute:\n%s", out)
	}
}

func TestTrailingQueryWithoutSemicolonRunsAtEOF(t *testing.T) {
	out := session(t, "MATCH (p:SIGA)-[:knows]-(q:SIGB) RETURN COUNT(DISTINCT p,q)")
	if !strings.Contains(out, "1 row(s)") {
		t.Fatalf("EOF-terminated query not executed:\n%s", out)
	}
}

func TestCommands(t *testing.T) {
	out := session(t, "\\help\n\\stats\n\\timing on\nMATCH (p:SIGA)-[:knows]-(q:SIGB) RETURN COUNT(DISTINCT p,q);\n\\timing off\n\\nope\n\\quit\nMATCH never runs;\n")
	for _, want := range []string{
		"commands:", "|V| = 150", "[:knows] 500", "timing on", "scan ", "timing off",
		"unknown command \\nope", "bye",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "never runs") {
		t.Error("input after \\quit was processed")
	}
}

// TestExplainCommand pins that the EXPLAIN prefix is the shell's way to a
// plan: the former \explain command is an unknown command.
func TestExplainCommand(t *testing.T) {
	out := session(t, "EXPLAIN MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q);\n")
	if !strings.Contains(out, "Join order") {
		t.Fatalf("missing plan:\n%s", out)
	}
	out = session(t, "EXPLAIN MATCH nope;\n")
	if !strings.Contains(out, "error:") {
		t.Fatalf("missing parse error:\n%s", out)
	}
	out = session(t, "\\explain MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p,q)\n")
	if !strings.Contains(out, "unknown command \\explain") {
		t.Fatalf("\\explain still accepted:\n%s", out)
	}
}

func TestQueryErrorsAreNotFatal(t *testing.T) {
	out := session(t, "MATCH broken;\nMATCH (p:SIGA)-[:knows]-(q:SIGB) RETURN COUNT(DISTINCT p,q);\n")
	if !strings.Contains(out, "error:") {
		t.Fatalf("missing error:\n%s", out)
	}
	if !strings.Contains(out, "1 row(s)") {
		t.Fatalf("recovery query did not run:\n%s", out)
	}
}

func TestTimingToggleValidation(t *testing.T) {
	out := session(t, "\\timing sideways\n")
	if !strings.Contains(out, `usage: \timing`) {
		t.Fatalf("missing usage:\n%s", out)
	}
}

func TestTablePrintingAlignment(t *testing.T) {
	out := session(t, "MATCH (p:SIGA)-[:knows*1..2]-(q:SIGB) RETURN COUNT(DISTINCT p) AS c, q ORDER BY c DESC LIMIT 3;\n")
	if !strings.Contains(out, "c ") || !strings.Contains(out, "--") {
		t.Fatalf("missing table formatting:\n%s", out)
	}
}

package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// Dataset text format
//
// Attribute file: one vertex per line,
//
//	<vertexName> <attr1> <attr2> ...
//
// Edge file: one undirected edge per line,
//
//	<vertexNameA> <vertexNameB>
//
// Blank lines and lines starting with '#' are ignored in both files.
// Fields are whitespace-separated. This mirrors the flat files used by
// the paper's released datasets (vertex/attribute table + edge list).

// ReadDataset parses an attribute file and an edge file into a Graph.
// Edges may reference vertices absent from the attribute file; such
// vertices are created without attributes.
func ReadDataset(attrsR, edgesR io.Reader) (*Graph, error) {
	b := NewBuilder()
	if err := readAttrLines(b, attrsR); err != nil {
		return nil, err
	}
	if err := readEdgeLines(b, edgesR); err != nil {
		return nil, err
	}
	return b.Build()
}

// ReadDatasetFiles opens the attribute file and the edge file at the
// given paths and parses them with ReadDataset.
func ReadDatasetFiles(attrsPath, edgesPath string) (*Graph, error) {
	af, err := os.Open(attrsPath)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	return ReadDataset(af, ef)
}

func readAttrLines(b *Builder, r io.Reader) error {
	sc := newScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if _, err := b.AddVertex(fields[0], fields[1:]...); err != nil {
			return fmt.Errorf("attrs line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading attribute file: %w", err)
	}
	return nil
}

func readEdgeLines(b *Builder, r io.Reader) error {
	sc := newScanner(r)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			return fmt.Errorf("edges line %d: want 2 fields, got %d", line, len(fields))
		}
		if err := b.AddEdgeByName(fields[0], fields[1]); err != nil {
			return fmt.Errorf("edges line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: reading edge file: %w", err)
	}
	return nil
}

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

// WriteDataset writes g in the dataset text format. Attribute names
// containing whitespace would corrupt the format and yield an error.
func WriteDataset(g *Graph, attrsW, edgesW io.Writer) error {
	aw := bufio.NewWriter(attrsW)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		name := g.VertexName(v)
		if strings.ContainsAny(name, " \t\n") {
			return fmt.Errorf("graph: vertex name %q contains whitespace", name)
		}
		if _, err := aw.WriteString(name); err != nil {
			return err
		}
		for _, a := range g.VertexAttrs(v) {
			an := g.AttrName(a)
			if strings.ContainsAny(an, " \t\n") {
				return fmt.Errorf("graph: attribute name %q contains whitespace", an)
			}
			if _, err := aw.WriteString(" " + an); err != nil {
				return err
			}
		}
		if err := aw.WriteByte('\n'); err != nil {
			return err
		}
	}
	if err := aw.Flush(); err != nil {
		return err
	}

	ew := bufio.NewWriter(edgesW)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				if _, err := fmt.Fprintf(ew, "%s %s\n", g.VertexName(v), g.VertexName(u)); err != nil {
					return err
				}
			}
		}
	}
	return ew.Flush()
}

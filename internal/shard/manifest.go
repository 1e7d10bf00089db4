package shard

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
)

// Manifest formats; see docs/FILE_FORMATS.md for the full spec.
// v1 carries the plan only (loaders re-evaluate level 1 themselves);
// v2 additionally seals every level-1 verdict so shard workers skip
// those coverage searches. Both load; BuildManifestSealed writes v2.
const (
	ManifestFormatV1 = "scpm-manifest/v1"
	ManifestFormatV2 = "scpm-manifest/v2"
)

// RootAssignment records one frequent root attribute's place in the
// plan: its name, id and support in the planned graph, its rank in
// extension order, and the shard owning its subtree.
type RootAssignment struct {
	Attr    string `json:"attr"`
	ID      int32  `json:"id"`
	Support int    `json:"support"`
	Rank    int    `json:"rank"`
	Shard   int    `json:"shard"`
}

// Manifest is the versioned, checksummed shard map: which shard owns
// which lattice prefix, against which dataset, and where each shard's
// snapshot lives. scpm-serve -shard boots its slice from it and
// scpm-gateway routes single-owner queries with it.
type Manifest struct {
	// Format is ManifestFormatV1, or ManifestFormatV2 once SealLevel1
	// installs the level-1 seal.
	Format string `json:"format"`
	// Shards is the number of partitions N.
	Shards int `json:"shards"`
	// SigmaMin is the support threshold the plan was derived under.
	SigmaMin int `json:"sigma_min"`
	// Vertices, Edges, Attributes pin the dataset shape the plan was
	// derived from, mirroring the index snapshot's shape check.
	Vertices   int `json:"vertices"`
	Edges      int `json:"edges"`
	Attributes int `json:"attributes"`
	// AttrNames is the planned graph's attribute table: every name in
	// id order, Attributes long. The gateway orders merged answers by
	// these ids, as a single-process server orders them.
	AttrNames []string `json:"attr_names"`
	// GraphVersion is the data version the plan was derived at.
	GraphVersion uint64 `json:"graph_version"`
	// Roots lists every frequent single in extension order (rank
	// ascending) with its shard assignment.
	Roots []RootAssignment `json:"roots"`
	// Snapshots holds one per-shard snapshot path, indexed by shard;
	// empty strings mean "mine at boot".
	Snapshots []string `json:"snapshots,omitempty"`
	// Level1 carries the sealed level-1 verdicts of a v2 manifest —
	// nil exactly when Format is v1. Verdicts align with Roots by index
	// (rank order).
	Level1 *SealedLevel1 `json:"level1,omitempty"`
	// Checksum is the FNV-1a/64 hex digest of the manifest JSON with
	// this field empty; Load refuses a manifest whose digest mismatches.
	Checksum string `json:"checksum"`
}

// SealedLevel1 is the v2 manifest's verdict payload: every frequent
// single's complete level-1 evaluation, pinned to the parameter
// fingerprint it was computed under. Shard workers loading it skip all
// level-1 coverage searches while producing bit-identical output.
type SealedLevel1 struct {
	// ParamsKey is core.Params.Level1Fingerprint of the sealing run; a
	// consumer mining under different parameters must refuse the seal.
	ParamsKey string `json:"params_key"`
	// Verdicts holds one sealed verdict per manifest root, aligned with
	// Roots by index (rank order).
	Verdicts []SealedVerdict `json:"verdicts"`
}

// SealedVerdict is one root's serialized core.Level1Verdict. Member
// sets are not sealed (they are the graph's own attribute postings);
// bitsets serialize as base64 of their canonical little-endian byte
// form, certificates as base64 of little-endian int32s. HasHanddown /
// HasExact / HasPatterns distinguish "absent" from "present but empty"
// — the distinction changes replay behavior, so it must survive the
// round trip.
type SealedVerdict struct {
	Epsilon         float64         `json:"epsilon"`
	Covered         int             `json:"covered"`
	KMass           float64         `json:"kmass"`
	Estimated       bool            `json:"estimated,omitempty"`
	ErrBound        float64         `json:"err_bound,omitempty"`
	SampledVertices int             `json:"sampled_vertices,omitempty"`
	Nodes           int64           `json:"nodes"`
	HasHanddown     bool            `json:"has_handdown,omitempty"`
	Handdown        string          `json:"handdown,omitempty"`
	HasExact        bool            `json:"has_exact,omitempty"`
	Exact           string          `json:"exact,omitempty"`
	HasPatterns     bool            `json:"has_patterns,omitempty"`
	Patterns        []SealedPattern `json:"patterns,omitempty"`
	Certs           []string        `json:"certs,omitempty"`
}

// SealedPattern is one sealed top-k pattern of a root. The attribute
// identity (and its name) is the root itself, so only the quasi-clique
// body is stored.
type SealedPattern struct {
	Vertices []int32 `json:"vertices"`
	MinDeg   int     `json:"min_deg"`
	Edges    int     `json:"edges"`
}

// BuildManifest plans g into n shards and renders the plan as a
// checksummed, plan-only v1 manifest (no level-1 verdicts);
// BuildManifestSealed builds on it to write the v2 manifest that
// deployments use. snapshots, when non-nil, must carry one path per
// shard.
func BuildManifest(g *graph.Graph, sigmaMin, n int, snapshots []string) (*Manifest, error) {
	if snapshots != nil && len(snapshots) != n {
		return nil, fmt.Errorf("shard: %d snapshot paths for %d shards", len(snapshots), n)
	}
	parts, err := Plan(g, sigmaMin, n)
	if err != nil {
		return nil, err
	}
	shardOf := make(map[int32]int)
	for _, p := range parts {
		for _, a := range p.Roots {
			shardOf[a] = p.Shard
		}
	}
	m := &Manifest{
		Format:       ManifestFormatV1,
		Shards:       n,
		SigmaMin:     sigmaMin,
		Vertices:     g.NumVertices(),
		Edges:        g.NumEdges(),
		Attributes:   g.NumAttributes(),
		GraphVersion: g.Version(),
		AttrNames:    make([]string, g.NumAttributes()),
		Snapshots:    snapshots,
	}
	for a := range m.AttrNames {
		m.AttrNames[a] = g.AttrName(int32(a))
	}
	for rank, r := range rankedRoots(g, sigmaMin) {
		m.Roots = append(m.Roots, RootAssignment{
			Attr:    g.AttrName(r.attr),
			ID:      r.attr,
			Support: r.support,
			Rank:    rank,
			Shard:   shardOf[r.attr],
		})
	}
	m.Seal()
	return m, nil
}

// Seal computes and installs the checksum.
func (m *Manifest) Seal() {
	m.Checksum = ""
	m.Checksum = m.digest()
}

// Verify checks the format marker, the checksum, the attribute table
// and — for v2 — the shape of the sealed level-1 payload. Both v1
// (plan only) and v2 (plan + sealed verdicts) manifests pass.
func (m *Manifest) Verify() error {
	switch m.Format {
	case ManifestFormatV1:
		if m.Level1 != nil {
			return fmt.Errorf("shard: %s manifest carries a level-1 seal (v2 payload under a v1 marker)", m.Format)
		}
	case ManifestFormatV2:
		if m.Level1 == nil {
			return fmt.Errorf("shard: %s manifest has no level-1 seal", m.Format)
		}
		if m.Level1.ParamsKey == "" {
			return fmt.Errorf("shard: %s manifest seals verdicts without a parameter fingerprint", m.Format)
		}
		if len(m.Level1.Verdicts) != len(m.Roots) {
			return fmt.Errorf("shard: manifest seals %d verdicts for %d roots", len(m.Level1.Verdicts), len(m.Roots))
		}
	default:
		return fmt.Errorf("shard: manifest format %q, want %q or %q", m.Format, ManifestFormatV1, ManifestFormatV2)
	}
	if m.Shards < 1 {
		return fmt.Errorf("shard: manifest declares %d shards", m.Shards)
	}
	if len(m.AttrNames) != m.Attributes {
		return fmt.Errorf("shard: manifest lists %d attribute names for %d attributes; re-plan it with scpm-gateway -plan", len(m.AttrNames), m.Attributes)
	}
	if m.Snapshots != nil && len(m.Snapshots) != m.Shards {
		return fmt.Errorf("shard: manifest lists %d snapshots for %d shards", len(m.Snapshots), m.Shards)
	}
	want := m.Checksum
	cp := *m
	cp.Checksum = ""
	if got := cp.digest(); got != want {
		return fmt.Errorf("shard: manifest checksum %s, computed %s (corrupt or hand-edited manifest)", want, got)
	}
	for i, r := range m.Roots {
		if r.Rank != i {
			return fmt.Errorf("shard: manifest root %d has rank %d (roots must be listed in rank order)", i, r.Rank)
		}
		if r.Shard < 0 || r.Shard >= m.Shards {
			return fmt.Errorf("shard: manifest root %q assigned to shard %d of %d", r.Attr, r.Shard, m.Shards)
		}
	}
	return nil
}

// digest renders the FNV-1a/64 hex digest of the manifest's JSON.
func (m *Manifest) digest() string {
	b, err := json.Marshal(m)
	if err != nil {
		// Manifest is plain data; Marshal cannot fail.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteManifest seals m and writes it atomically (tmp + rename).
func WriteManifest(m *Manifest, path string) error {
	m.Seal()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadManifest reads and verifies a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest %s: %w", path, err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &m, nil
}

// Rank returns the extension-order rank of an attribute name, or -1
// when the attribute is not a frequent root of the plan.
func (m *Manifest) Rank(attr string) int {
	for _, r := range m.Roots {
		if r.Attr == attr {
			return r.Rank
		}
	}
	return -1
}

// Route returns the shard owning the attribute set named by attrs: the
// shard of the set's minimal attribute in extension order — where the
// mining run indexed it, if it qualified. Sets containing no frequent
// root cannot be indexed anywhere; they route by a deterministic hash
// of the sorted names (any shard computes the same on-demand answer,
// the hash just spreads the load).
func (m *Manifest) Route(attrs []string) int {
	best := -1
	for _, a := range attrs {
		if r := m.Rank(a); r >= 0 && (best < 0 || r < best) {
			best = r
		}
	}
	if best >= 0 {
		return m.Roots[best].Shard
	}
	sorted := append([]string(nil), attrs...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, a := range sorted {
		fmt.Fprintf(h, "%s\x00", a)
	}
	return int(h.Sum64() % uint64(m.Shards))
}

// BuildManifestSealed plans g into n shards and seals every level-1
// verdict into a v2 manifest: one ComputeLevel1 pass, paid once at plan
// time, that every shard worker loading the manifest skips thereafter.
// p is the full mining parameter block the shard workers will run
// under; its SigmaMin drives the plan.
func BuildManifestSealed(ctx context.Context, g *graph.Graph, p core.Params, n int, snapshots []string) (*Manifest, error) {
	m, err := BuildManifest(g, p.SigmaMin, n, snapshots)
	if err != nil {
		return nil, err
	}
	verdicts, err := core.ComputeLevel1(ctx, g, p)
	if err != nil {
		return nil, err
	}
	if err := m.SealLevel1(verdicts); err != nil {
		return nil, err
	}
	return m, nil
}

// SealLevel1 installs a verdict set into the manifest, upgrading it to
// v2 and re-sealing the checksum. The verdicts must cover every root
// and match the manifest's graph version.
func (m *Manifest) SealLevel1(v *core.Level1Verdicts) error {
	if v.GraphVersion() != m.GraphVersion {
		return fmt.Errorf("shard: verdicts at graph version %d, manifest at %d", v.GraphVersion(), m.GraphVersion)
	}
	sealed := &SealedLevel1{ParamsKey: v.ParamsKey(), Verdicts: make([]SealedVerdict, len(m.Roots))}
	for i, r := range m.Roots {
		d := v.Lookup(r.ID)
		if d == nil {
			return fmt.Errorf("shard: no verdict for root %q (id %d)", r.Attr, r.ID)
		}
		sv := SealedVerdict{
			Epsilon:         d.Epsilon,
			Covered:         d.Covered,
			KMass:           d.KMass,
			Estimated:       d.Estimated,
			ErrBound:        d.ErrBound,
			SampledVertices: d.SampledVertices,
			Nodes:           d.Nodes,
			HasPatterns:     d.HasPatterns,
		}
		if d.Handdown != nil {
			sv.HasHanddown = true
			sv.Handdown = base64.StdEncoding.EncodeToString(d.Handdown.Bytes())
		}
		if d.Exact != nil {
			sv.HasExact = true
			sv.Exact = base64.StdEncoding.EncodeToString(d.Exact.Bytes())
		}
		for _, p := range d.Patterns {
			sv.Patterns = append(sv.Patterns, SealedPattern{Vertices: p.Vertices, MinDeg: p.MinDeg, Edges: p.Edges})
		}
		for _, c := range d.Certs.Certificates() {
			sv.Certs = append(sv.Certs, sealInts(c))
		}
		sealed.Verdicts[i] = sv
	}
	m.Level1 = sealed
	m.Format = ManifestFormatV2
	m.Seal()
	return nil
}

// Level1Verdicts reconstructs the sealed verdicts for injection into
// core.Params.Level1Verdicts. It returns (nil, nil) when the manifest
// carries no seal (v1) or when g has moved past the sealed graph
// version, which core.Mine would refuse with core.ErrStaleVerdicts:
// after live updates a run evaluates level 1 itself, or a Remine
// carries it over from the previous result. A graph at the sealed
// version that is not the planned graph fails (see checkShape).
// Bitsets are rebuilt at g's vertex capacity; pattern attribute
// identity is the root itself.
func (m *Manifest) Level1Verdicts(g *graph.Graph) (*core.Level1Verdicts, error) {
	if m.Level1 == nil || g.Version() != m.GraphVersion {
		return nil, nil
	}
	if err := m.checkShape(g); err != nil {
		return nil, err
	}
	out := core.NewLevel1Verdicts(m.GraphVersion, m.Level1.ParamsKey)
	n := g.NumVertices()
	for i, sv := range m.Roots {
		s := m.Level1.Verdicts[i]
		d := &core.Level1Verdict{
			Attr: sv.ID,
			Evaluation: core.Evaluation{
				Estimate: epsilon.Estimate{
					Epsilon:         s.Epsilon,
					Covered:         s.Covered,
					KMass:           s.KMass,
					Estimated:       s.Estimated,
					ErrBound:        s.ErrBound,
					SampledVertices: s.SampledVertices,
					Nodes:           s.Nodes,
				},
				HasPatterns: s.HasPatterns,
			},
		}
		if s.HasHanddown {
			set, err := unsealBitset(n, s.Handdown)
			if err != nil {
				return nil, fmt.Errorf("shard: root %q handdown: %w", sv.Attr, err)
			}
			d.Handdown = set
		}
		if s.HasExact {
			set, err := unsealBitset(n, s.Exact)
			if err != nil {
				return nil, fmt.Errorf("shard: root %q exact handdown: %w", sv.Attr, err)
			}
			d.Exact = set
		}
		if s.HasPatterns {
			attrs := []int32{sv.ID}
			names := g.AttrSetNames(attrs)
			d.Patterns = make([]core.Pattern, len(s.Patterns))
			for j, p := range s.Patterns {
				d.Patterns[j] = core.Pattern{Attrs: attrs, Names: names, Vertices: p.Vertices, MinDeg: p.MinDeg, Edges: p.Edges}
			}
		}
		certs := epsilon.NewCertStore()
		for j, c := range s.Certs {
			vs, err := unsealInts(c)
			if err != nil {
				return nil, fmt.Errorf("shard: root %q certificate %d: %w", sv.Attr, j, err)
			}
			certs.Add(vs)
		}
		d.Certs = certs.Frozen()
		out.Add(d)
	}
	return out, nil
}

// checkShape refuses to pair the seal with a graph that sits at the
// sealed version but is not the planned graph. A version counts
// updates since the graph was built, not its content, so a graph
// rebuilt from other data restarts at the same version; replaying the
// seal over it would silently report the planned graph's numbers. The
// vertex, edge and attribute counts, the attribute table and every
// root's support must all match the plan.
func (m *Manifest) checkShape(g *graph.Graph) error {
	if g.NumVertices() != m.Vertices || g.NumEdges() != m.Edges || g.NumAttributes() != m.Attributes {
		return fmt.Errorf("shard: graph shape %dv/%de/%da does not match manifest %dv/%de/%da at the same version",
			g.NumVertices(), g.NumEdges(), g.NumAttributes(), m.Vertices, m.Edges, m.Attributes)
	}
	for a, name := range m.AttrNames {
		if got := g.AttrName(int32(a)); got != name {
			return fmt.Errorf("shard: graph attribute %d is %q, manifest names it %q", a, got, name)
		}
	}
	for _, r := range m.Roots {
		if r.ID < 0 || int(r.ID) >= m.Attributes {
			return fmt.Errorf("shard: manifest root %q has attribute id %d of %d", r.Attr, r.ID, m.Attributes)
		}
		if got := g.AttrSupport(r.ID); got != r.Support {
			return fmt.Errorf("shard: graph support of root %q is %d, manifest planned %d", r.Attr, got, r.Support)
		}
	}
	return nil
}

// sealInts renders int32s as base64 of their little-endian bytes.
func sealInts(vs []int32) string {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return base64.StdEncoding.EncodeToString(b)
}

// unsealInts reverses sealInts.
func unsealInts(enc string) ([]int32, error) {
	b, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, err
	}
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("shard: %d-byte int32 run is not a multiple of 4", len(b))
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// unsealBitset reverses the base64-of-Bytes bitset encoding at
// capacity n.
func unsealBitset(n int, enc string) (*bitset.Set, error) {
	b, err := base64.StdEncoding.DecodeString(enc)
	if err != nil {
		return nil, err
	}
	return bitset.FromBytes(n, b)
}

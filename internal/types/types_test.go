package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueCloneIndependence(t *testing.T) {
	v := Value("hello")
	c := v.Clone()
	c[0] = 'H'
	if string(v) != "hello" {
		t.Fatalf("clone aliases original: %q", v)
	}
	if Value(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{nil, nil, true},
		{Value{}, nil, true},
		{Value("a"), Value("a"), true},
		{Value("a"), Value("b"), false},
		{Value("a"), Value("ab"), false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%q,%q)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTransactionIDStableAcrossPromotion(t *testing.T) {
	tx := &Transaction{
		Client:   7,
		Nonce:    42,
		Kind:     SingleShard,
		Shards:   []ShardID{3},
		Contract: "smallbank.send_payment",
		Args:     [][]byte{[]byte("a"), []byte("b")},
	}
	before := tx.ID()
	tx.Promote()
	if tx.Kind != CrossShard || tx.OrigKind != SingleShard {
		t.Fatalf("promotion wrong: kind=%v orig=%v", tx.Kind, tx.OrigKind)
	}
	if tx.ID() != before {
		t.Fatal("promotion changed transaction identity")
	}
	// Promotion must be idempotent.
	tx.Promote()
	if tx.OrigKind != SingleShard {
		t.Fatal("double promotion clobbered OrigKind")
	}
}

func TestTransactionIDDistinguishes(t *testing.T) {
	base := Transaction{Client: 1, Nonce: 1, Kind: SingleShard, Shards: []ShardID{0}, Contract: "c"}
	a := base
	b := base
	b.Nonce = 2
	if a.ID() == b.ID() {
		t.Fatal("different nonces share an ID")
	}
	c := base
	c.Args = [][]byte{[]byte("x")}
	if a.ID() == c.ID() {
		t.Fatal("different args share an ID")
	}
	// Timestamp must not affect identity.
	d := base
	d.SubmitUnixNano = 999
	if a.ID() != d.ID() {
		t.Fatal("timestamp changed identity")
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := &Transaction{
		Client: 9, Nonce: 10, Kind: CrossShard, OrigKind: SingleShard,
		Shards: []ShardID{1, 4}, Contract: "smallbank.amalgamate",
		Args: [][]byte{[]byte("acct1"), nil, []byte("acct2")},
		Code: []byte{0x01, 0x02}, SubmitUnixNano: 12345,
	}
	enc, err := tx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Transaction
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.ID() != tx.ID() {
		t.Fatal("round trip changed identity")
	}
	if got.Kind != tx.Kind || got.OrigKind != tx.OrigKind || got.SubmitUnixNano != tx.SubmitUnixNano {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, *tx)
	}
	if len(got.Args) != 3 || !bytes.Equal(got.Args[0], []byte("acct1")) {
		t.Fatalf("args mismatch: %v", got.Args)
	}
}

func TestTransactionRoundTripQuick(t *testing.T) {
	f := func(client, nonce uint64, shard uint32, contract string, arg []byte, ts int64) bool {
		tx := &Transaction{
			Client: client, Nonce: nonce, Kind: SingleShard,
			Shards: []ShardID{ShardID(shard)}, Contract: contract,
			Args: [][]byte{arg}, SubmitUnixNano: ts,
		}
		enc, err := tx.MarshalBinary()
		if err != nil {
			return false
		}
		var got Transaction
		if err := got.UnmarshalBinary(enc); err != nil {
			return false
		}
		return got.ID() == tx.ID() && got.SubmitUnixNano == ts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionUnmarshalRejectsGarbage(t *testing.T) {
	var tx Transaction
	if err := tx.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated input")
	}
	// Trailing bytes must be rejected too.
	good, _ := (&Transaction{Kind: SingleShard, Shards: []ShardID{0}}).MarshalBinary()
	if err := tx.UnmarshalBinary(append(good, 0xFF)); err == nil {
		t.Fatal("expected error on trailing bytes")
	}
}

func TestTxResultRoundTrip(t *testing.T) {
	r := &TxResult{
		TxID:         HashBytes([]byte("tx")),
		ScheduleIdx:  7,
		ReadSet:      []RWRecord{{Key: "a", Value: Value("1")}, {Key: "b", Value: nil}},
		WriteSet:     []RWRecord{{Key: "a", Value: Value("2")}},
		Reexecutions: 3,
	}
	enc, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got TxResult
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.WriteSet, r.WriteSet) || got.ScheduleIdx != 7 || got.Reexecutions != 3 {
		t.Fatalf("mismatch: %+v", got)
	}
	if len(got.ReadSet) != 2 || got.ReadSet[0].Key != "a" {
		t.Fatalf("read set mismatch: %+v", got.ReadSet)
	}
}

func TestBlockDigestDeterministic(t *testing.T) {
	mk := func() *Block {
		return &Block{
			Epoch: 1, Round: 3, Proposer: 2, Shard: 2, Kind: NormalBlock,
			Parents: []Digest{HashBytes([]byte("p1")), HashBytes([]byte("p2"))},
			SingleTxs: []*Transaction{
				{Client: 1, Nonce: 1, Kind: SingleShard, Shards: []ShardID{2}, Contract: "c"},
			},
			Results:          []TxResult{{TxID: HashBytes([]byte("tx"))}},
			CrossTxs:         []*Transaction{{Client: 2, Nonce: 2, Kind: CrossShard, Shards: []ShardID{1, 2}}},
			ProposedUnixNano: 100,
		}
	}
	if mk().Digest() != mk().Digest() {
		t.Fatal("identical blocks produced different digests")
	}
	b := mk()
	b.Round = 4
	if b.Digest() == mk().Digest() {
		t.Fatal("different rounds share a digest")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	b := &Block{
		Epoch: 2, Round: 5, Proposer: 1, Shard: 3, Kind: SkipBlock,
		Parents:          []Digest{HashBytes([]byte("x"))},
		ProposedUnixNano: 55,
	}
	enc, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Block
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if got.Digest() != b.Digest() {
		t.Fatal("block round trip changed digest")
	}
	if got.Kind != SkipBlock || got.Shard != 3 {
		t.Fatalf("field mismatch: %+v", got)
	}
}

func TestCertificateDigestIgnoresSignatures(t *testing.T) {
	c1 := &Certificate{BlockDigest: HashBytes([]byte("b")), Epoch: 1, Round: 2, Proposer: 3,
		Sigs: []Signature{{Signer: 0, Sig: []byte("s0")}}}
	c2 := &Certificate{BlockDigest: HashBytes([]byte("b")), Epoch: 1, Round: 2, Proposer: 3,
		Sigs: []Signature{{Signer: 1, Sig: []byte("s1")}, {Signer: 2, Sig: []byte("s2")}}}
	if c1.Digest() != c2.Digest() {
		t.Fatal("certificate identity must not depend on which quorum signed")
	}
}

func TestCertificateRoundTrip(t *testing.T) {
	c := &Certificate{BlockDigest: HashBytes([]byte("blk")), Epoch: 1, Round: 9, Proposer: 0,
		Sigs: []Signature{{Signer: 1, Sig: []byte("a")}, {Signer: 2, Sig: []byte("b")}}}
	enc, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Certificate
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	// Compare semantically (identity digest + re-marshalled bytes),
	// not with DeepEqual: the unexported digest-cache fields differ
	// depending on whether Digest was ever called on a value.
	if got.Digest() != c.Digest() {
		t.Fatalf("identity mismatch: %+v vs %+v", got, *c)
	}
	enc2, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(enc2, enc) {
		t.Fatalf("re-encoding differs: %x vs %x", enc2, enc)
	}
}

func TestShardMapStableAndInRange(t *testing.T) {
	m := NewShardMap(7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		k := Key(randString(rng, 1+rng.Intn(20)))
		s1 := m.ShardOf(k)
		s2 := m.ShardOf(k)
		if s1 != s2 {
			t.Fatalf("unstable shard for %q", k)
		}
		if uint32(s1) >= 7 {
			t.Fatalf("shard out of range: %d", s1)
		}
	}
}

func TestShardMapCoversAllShards(t *testing.T) {
	m := NewShardMap(4)
	seen := map[ShardID]bool{}
	for i := 0; i < 200; i++ {
		seen[m.ShardOf(Key(randString(rand.New(rand.NewSource(int64(i))), 8)))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("hash does not cover all shards: %v", seen)
	}
}

func TestShardMapPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero shards")
		}
	}()
	NewShardMap(0)
}

func TestSharesShard(t *testing.T) {
	a := &Transaction{Shards: []ShardID{1, 2}}
	b := &Transaction{Shards: []ShardID{2, 3}}
	c := &Transaction{Shards: []ShardID{4}}
	if !a.SharesShard(b) {
		t.Fatal("a and b overlap on shard 2")
	}
	if a.SharesShard(c) {
		t.Fatal("a and c are disjoint")
	}
	if !a.TouchesShard(1) || a.TouchesShard(9) {
		t.Fatal("TouchesShard wrong")
	}
}

func randString(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestDecodeAllocationBoundedByInput feeds block decode the frames
// whose forged counts used to size allocations: a block header
// claiming 2³¹ parents (29 bytes) and one claiming 2³¹ single-shard
// transactions (33 bytes). Decoding must fail, and allocate at most a
// small constant times the bytes received.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	header := func() *Encoder {
		e := NewEncoder()
		e.U64(1) // epoch
		e.U64(7) // round
		e.U32(2) // proposer
		e.U32(2) // shard
		e.U8(1)  // kind
		return e
	}
	parents := header()
	parents.U32(1 << 31)
	singles := header()
	singles.U32(0)
	singles.U32(1 << 31)
	for _, tc := range []struct {
		name  string
		frame []byte
		size  int
	}{
		{"parents", parents.Sum(), 29},
		{"single-shard txs", singles.Sum(), 33},
	} {
		if len(tc.frame) != tc.size {
			t.Fatalf("%s frame is %d bytes, want %d", tc.name, len(tc.frame), tc.size)
		}
		var b Block
		if err := b.UnmarshalBinary(tc.frame); err == nil {
			t.Fatalf("%s frame decoded without error", tc.name)
		}
		res := testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				var b Block
				_ = b.UnmarshalBinary(tc.frame)
			}
		})
		t.Logf("%s frame: %d bytes allocated per decode", tc.name, res.AllocedBytesPerOp())
		if got, limit := res.AllocedBytesPerOp(), int64(8*len(tc.frame)); got > limit {
			t.Errorf("%s frame (%d bytes) allocates %d bytes per decode, limit %d", tc.name, len(tc.frame), got, limit)
		}
	}
}

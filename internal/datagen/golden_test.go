package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"strconv"
	"testing"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

// goldenDigests pins one period of generator output per configuration. A
// change to any random draw, seed label or Zipf table entry moves these, so
// they guard the bit-identity contract of every fast path in this package.
var goldenDigests = map[string]string{
	"seed42/uniform/d0.05": "77b72f51efa97cb0df9816ed00f8bc264c5901ec12d218c45a60c91a245a2ed1",
	"seed42/uniform/d1":    "e514b3415414a554a4a526caa2f5623e4163137650119443a00ea708a4a74e8a",
	"seed42/skewed/d0.05":  "b9c86460d50b8f8321f06d6a0447872123177db1980a055d9c42caeff05b10bc",
	"seed42/skewed/d1":     "ab526f9a0ad57e6ab9539cb2c4cfaf83a64526a661c25cf0f6030b90c050ecfd",
	"seed7/uniform/d0.05":  "5086adb80bea2d2a08c0219819de0170724c46ef34ded2eb1dc27c9e461ed46d",
	"seed7/uniform/d1":     "f6a568363495e52cc6986fc8f4b4ade43b2a97d101096ba3fa6ab031499e9b66",
	"seed7/skewed/d0.05":   "eecc436e2dc732baf7225ae49a0cf371dd5cdc8fb0f21ff557a83aeb07bd6ef1",
	"seed7/skewed/d1":      "2e28f5f4e072df79840027d37737d0e79ca82f1c9225390b8459687950b23691",
}

// goldenMessages is how many messages per E1 process type the digest covers.
const goldenMessages = 200

func TestGeneratorGoldenDigest(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		for _, dist := range []Distribution{Uniform, Skewed} {
			for _, d := range []float64{0.05, 1} {
				name := fmt.Sprintf("seed%d/%s/d%g", seed, dist, d)
				t.Run(name, func(t *testing.T) {
					g := MustNew(Config{Seed: seed, Datasize: d, Dist: dist, Period: 3})
					got := generatorDigest(t, g)
					if want := goldenDigests[name]; got != want {
						t.Errorf("digest %s, want %s", got, want)
					}
				})
			}
		}
	}
}

// generatorDigest hashes every dataset, every source's canonical orders and
// the first goldenMessages messages of P01, P02, P04, P08 and P10 (plus the
// entities behind the order messages).
func generatorDigest(t *testing.T, g *Generator) string {
	t.Helper()
	h := sha256.New()
	rels := func(label string, rs ...*rel.Relation) {
		for i, r := range rs {
			fmt.Fprintf(h, "%s/%d %s %d\n", label, i, r.Schema(), r.Len())
			for _, row := range r.Rows() {
				for _, v := range row {
					fmt.Fprintf(h, "%d:%s|", v.Type(), v)
				}
				io.WriteString(h, "\n")
			}
		}
	}
	for _, src := range []string{schema.SysBerlinParis, schema.SysTrondheim} {
		ds, err := g.Europe(src)
		if err != nil {
			t.Fatal(err)
		}
		rels(src, ds.City, ds.Company, ds.Customer, ds.Orders, ds.Orderline, ds.Product, ds.ProductGroup)
	}
	for _, src := range []string{schema.SysChicago, schema.SysBaltimore, schema.SysMadison} {
		ds, err := g.TPCH(src)
		if err != nil {
			t.Fatal(err)
		}
		rels(src, ds.Customer, ds.Orders, ds.Lineitem, ds.Part)
	}
	for _, src := range []string{schema.SysBeijing, schema.SysSeoul, schema.SysHongkong} {
		ds, err := g.Asia(src)
		if err != nil {
			t.Fatal(err)
		}
		rels(src, ds.Customers, ds.Products, ds.Orders, ds.OrderItems)
	}
	for _, src := range []string{schema.SysBerlinParis, schema.SysTrondheim, schema.SysChicago,
		schema.SysBaltimore, schema.SysMadison, schema.SysBeijing, schema.SysSeoul, schema.SysHongkong} {
		orders, err := g.SourceOrders(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range orders {
			writeOrder(h, o)
		}
	}
	for i := 0; i < goldenMessages; i++ {
		io.WriteString(h, g.BeijingCustomerMsg(i).String())
		io.WriteString(h, g.MDMCustomer(i).String())
		io.WriteString(h, g.ViennaOrder(i).String())
		io.WriteString(h, g.HongkongOrder(i).String())
		sd, broken := g.SanDiegoOrder(i)
		fmt.Fprintf(h, "%s%t\n", sd, broken)
		writeOrder(h, g.ViennaOrderEntity(i))
		writeOrder(h, g.HongkongOrderEntity(i))
		o, broken := g.SanDiegoOrderEntity(i)
		writeOrder(h, o)
		io.WriteString(h, strconv.FormatBool(broken))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeOrder hashes an order exactly: floats by their bits.
func writeOrder(h hash.Hash, o Order) {
	fmt.Fprintf(h, "%d %d %d %d %s %s %x %t;", o.Key, o.CustKey, o.CityKey, o.Date.Unix(),
		o.Status, o.Priority, math.Float64bits(o.Total), o.Dirty)
	for _, l := range o.Lines {
		fmt.Fprintf(h, "%d %d %d %x;", l.Pos, l.ProdKey, l.Quantity, math.Float64bits(l.Price))
	}
	io.WriteString(h, "\n")
}

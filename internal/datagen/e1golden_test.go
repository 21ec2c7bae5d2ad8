package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// e1Golden pins the canonical bytes of the first goldenMessages messages
// of each E1 kind, per seed and datasize. San Diego's digest also covers
// the broken flag of every message. Changing how a message is built (tree
// or byte builder) must leave every one of these unchanged.
var e1Golden = map[string]string{
	"seed42/d1/P01":    "792f27795e24017c80e429d13c1375517d76a13029176829538daf96c0c3ec5d",
	"seed42/d1/P02":    "dbe1c458321f32d9b22c64548fa5de6159db44d55e51640c8e06778f7b1c69e7",
	"seed42/d1/P04":    "b03ea1dd6eec5ec792236f1f0a435c4a9eecc12ff0b5f855ef596166802b10d1",
	"seed42/d1/P08":    "84c8610fa6bc78f9180c1499d9742f65cf11bf41d092e86c95889b252d968a89",
	"seed42/d1/P10":    "7fd19e0e9e0f703c8a2e6eafe73abd36b70ed2e7ce4dc4e331c439bf031d9de6",
	"seed42/d0.05/P01": "d16af3f9c8eaaf1282261ef0735be0a38c703870382ddbc16a1bc40fb406d222",
	"seed42/d0.05/P02": "fd3c385b20bd01a88dc4daa5fcfd9d6fe223f294b767b0bb3ee4d9d96bc89953",
	"seed42/d0.05/P04": "c70c9efee716982211801015be85b16fda6296f1b32c32fb43b9d2d976b52278",
	"seed42/d0.05/P08": "996aaa219e1ccda8e4f8a26af8ef3bfd25b104b4049bd5de8fa47f6cb174b56c",
	"seed42/d0.05/P10": "209b6e7c374b852d854062ed8fc9ac80d6b130bea7ab849b55b4e505be747bad",
	"seed7/d1/P01":     "de140243531cc7b7d92362160b7f7f31054826a1e353dda8bddada70803be4fe",
	"seed7/d1/P02":     "6dab2f2fd34b957382b0733dd7eb218b8e55680e6e9dbe953139e6d608e00d5b",
	"seed7/d1/P04":     "1b250440083dd14cd40e3288c1d45eeeebd27aec12b91fc5ee4a5750153f3291",
	"seed7/d1/P08":     "bf9703a72dcf6fe88de23bdd941182cabb4f3f042460852144b67c82b62440a2",
	"seed7/d1/P10":     "ff2e5723253f410724d2daa317a94f6afbf06458b806de06e7077ad2999a140a",
	"seed7/d0.05/P01":  "4a422e4b41596ba4b03d912739048f80311435f4d131bed11682b09cd7be723b",
	"seed7/d0.05/P02":  "5429d5e44d9565a730e39964c266375f4fd4ed359f2ba74911532ee9ffcd3236",
	"seed7/d0.05/P04":  "d944fdba27f03c780fa0da7e49945ac78cd392116ed5f7c2c068b52fe8acac3d",
	"seed7/d0.05/P08":  "aa99182f310c7f9f4a73d9b9669edf2b78c9f70c447043b9db32bcd1be1c6fac",
	"seed7/d0.05/P10":  "614d0c78f0a59e54988dde92a0441d62b1d1534b92f8718509e5fc7eb0541688",
}

// sanDiegoViolation names the schema violation a broken San Diego message
// carries, read from its serialized form.
func sanDiegoViolation(b string) string {
	switch {
	case !strings.Contains(b, "<Customer>"):
		return "no-customer"
	case strings.Contains(b, "<Sum>12,50</Sum>"):
		return "bad-decimal"
	case strings.Contains(b, "<Placed>yesterday</Placed>"):
		return "bad-timestamp"
	case strings.Contains(b, "<Remark>"):
		return "undeclared-element"
	}
	return "none"
}

func TestE1MessagesGolden(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		for _, d := range []float64{1, 0.05} {
			g := MustNew(Config{Seed: seed, Datasize: d, Dist: Uniform})
			kinds := []struct {
				name string
				msg  func(i int) (string, bool)
			}{
				{"P01", func(i int) (string, bool) { return g.BeijingCustomerMsg(i).String(), false }},
				{"P02", func(i int) (string, bool) { return g.MDMCustomer(i).String(), false }},
				{"P04", func(i int) (string, bool) { return g.ViennaOrder(i).String(), false }},
				{"P08", func(i int) (string, bool) { return g.HongkongOrder(i).String(), false }},
				{"P10", func(i int) (string, bool) {
					doc, broken := g.SanDiegoOrder(i)
					return doc.String(), broken
				}},
			}
			for _, k := range kinds {
				name := fmt.Sprintf("seed%d/d%g/%s", seed, d, k.name)
				h := sha256.New()
				violations := map[string]int{}
				for i := 0; i < goldenMessages; i++ {
					b, broken := k.msg(i)
					fmt.Fprintf(h, "%d %t %s\n", i, broken, b)
					if broken {
						violations[sanDiegoViolation(b)]++
					}
				}
				if k.name == "P10" {
					for _, v := range []string{"no-customer", "bad-decimal", "bad-timestamp", "undeclared-element"} {
						if violations[v] == 0 {
							t.Errorf("%s: no broken message with violation %s (%v)", name, v, violations)
						}
					}
					if violations["none"] != 0 {
						t.Errorf("%s: %d broken messages without a recognised violation", name, violations["none"])
					}
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), e1Golden[name]; got != want {
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
			}
		}
	}
}

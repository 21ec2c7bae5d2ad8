package datagen

import (
	"fmt"
	"math"
	"time"

	"repro/internal/schema"
)

// Config parameterizes a Generator. Datasize is the benchmark's continuous
// scale factor d (dataset sizes scale linearly with it), Dist is the
// discrete scale factor f, Period is the benchmark period k (source
// systems are re-initialized with fresh data every period), and Seed is
// the global benchmark seed.
type Config struct {
	Seed     uint64
	Datasize float64
	Dist     Distribution
	Period   int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Datasize <= 0 {
		return fmt.Errorf("datagen: datasize must be positive, got %g", c.Datasize)
	}
	if c.Period < 0 {
		return fmt.Errorf("datagen: period must be non-negative, got %d", c.Period)
	}
	return nil
}

// Base dataset sizes per source system at d = 1.0.
const (
	BaseCustomers = 800
	BaseProducts  = 200
	BaseOrders    = 1500
	MaxOrderLines = 4
)

// SharedFraction is the fraction of master/movement keys a source shares
// with the previous source of its consolidation group, guaranteeing that
// the UNION DISTINCT operators (P03, P09) and the duplicate cleansing
// (P12) have real duplicates to remove.
const SharedFraction = 0.2

// DirtyRate is the fraction of master-data rows generated with quality
// defects (empty names, malformed phone numbers) for the cleansing
// procedures to eliminate.
const DirtyRate = 0.06

// MovementErrorRate is the fraction of orders generated with corrupted
// movement data (negated totals); sp_runMovementDataCleansing (P13)
// eliminates these before the warehouse load.
const MovementErrorRate = 0.03

// unionGroups lists, per source, the predecessor source whose keys it
// partially duplicates. Chicago<-Baltimore<-Madison feed the P03 union;
// Beijing<-Seoul feed the P09 union.
var unionGroups = map[string]string{
	schema.SysBaltimore: schema.SysChicago,
	schema.SysMadison:   schema.SysBaltimore,
	schema.SysSeoul:     schema.SysBeijing,
}

// orderDateWindowDays is the span of generated order dates; dates spread
// over a year so the Time dimension (Year/Month functions) and the
// OrdersMV grouping are non-trivial.
const orderDateWindowDays = 365

// epoch is the fixed start of the order-date window. The window shifts by
// one day per benchmark period.
var epoch = time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)

// Generator produces the synthetic datasets and messages of one benchmark
// period. All output is a pure function of the Config.
type Generator struct {
	cfg    Config
	period seedHash // seed with the "period-<k>" label folded in
	pools  msgPools
}

// msgPools are the candidate pools the E1 messages draw from. They depend
// only on the Config, so New builds them once per period and the message
// generators share them read-only.
type msgPools struct {
	viennaCust, hongkongCust, sanDiegoCust, beijingCust []int64
	europeProd, asiaProd, americaProd                   []int64
	europeCities, hongkong, sanDiego                    []schema.CityRow
}

// New creates a Generator; the Config must validate.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, period: newSeedHash(cfg.Seed).intLabel("period-", int64(cfg.Period))}
	custLo := schema.CustKeys[schema.SysSanDiego].Lo
	sanDiegoCust := make([]int64, g.CustomerCount())
	for j := range sanDiegoCust {
		sanDiegoCust[j] = custLo + int64(j)
	}
	g.pools = msgPools{
		viennaCust:   append(g.CustomerKeys(schema.SysBerlinParis), g.CustomerKeys(schema.SysTrondheim)...),
		hongkongCust: g.CustomerKeys(schema.SysHongkong),
		sanDiegoCust: sanDiegoCust,
		beijingCust:  g.CustomerKeys(schema.SysBeijing),
		europeProd:   g.ProductKeys(schema.RegionEurope),
		asiaProd:     g.ProductKeys(schema.RegionAsia),
		americaProd:  g.ProductKeys(schema.RegionAmerica),
		europeCities: schema.CitiesInRegion(schema.RegionEurope),
		hongkong:     []schema.CityRow{*schema.CityByName("Hongkong")},
		sanDiego:     []schema.CityRow{*schema.CityByName("San Diego")},
	}
	return g, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Generator {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// scaled applies the datasize scale factor to a base count; at least 1.
func (g *Generator) scaled(base int) int {
	n := int(math.Ceil(float64(base) * g.cfg.Datasize))
	if n < 1 {
		n = 1
	}
	return n
}

// CustomerCount is the number of customers generated per source system.
func (g *Generator) CustomerCount() int { return g.scaled(BaseCustomers) }

// ProductCount is the number of products generated per source system.
func (g *Generator) ProductCount() int { return g.scaled(BaseProducts) }

// OrderCount is the number of orders generated per source system.
func (g *Generator) OrderCount() int { return g.scaled(BaseOrders) }

// rng derives a fresh deterministic stream for a labelled purpose within
// the current period.
func (g *Generator) rng(labels ...string) *RNG {
	h := g.period
	for _, l := range labels {
		h = h.label(l)
	}
	return NewRNG(uint64(h))
}

// indexRNG is rng(kind, strconv.Itoa(i)): the stream of the i-th message
// of a kind.
func (g *Generator) indexRNG(kind string, i int) RNG {
	return RNG{state: uint64(g.period.label(kind).intLabel("", int64(i)))}
}

// entityRNG derives the attribute stream of one keyed entity, the labels
// being kind and "key-<key>". Attributes are a function of (seed, period,
// kind, key) only — independent of which source emits the entity — so
// duplicated keys across sources carry identical attributes and duplicate
// elimination is well-defined. It is returned by value so the stream of
// an entity lives on its caller's stack.
func (g *Generator) entityRNG(kind string, key int64) RNG {
	return RNG{state: uint64(g.period.label(kind).intLabel("key-", key))}
}

// Customer is the canonical generated customer entity; per-source schema
// conversion happens in the relation builders.
type Customer struct {
	Key     int64
	Name    string
	Address string
	CityKey int64
	Phone   string
	Dirty   bool // fails master-data quality checks
}

// Product is the canonical generated product entity.
type Product struct {
	Key      int64
	Name     string
	Price    float64
	GroupKey int64
	Dirty    bool
}

// OrderLine is one position of a generated order.
type OrderLine struct {
	Pos      int64
	ProdKey  int64
	Quantity int64
	Price    float64 // extended price of the position
}

// Order is the canonical generated order entity with its lines.
type Order struct {
	Key      int64
	CustKey  int64
	CityKey  int64
	Date     time.Time
	Status   string // OPEN | SHIPPED | CLOSED
	Priority string // URGENT | HIGH | MEDIUM | LOW
	Total    float64
	Lines    []OrderLine
	Dirty    bool // corrupted movement data (negative total)
}

// Statuses and priorities in canonical (warehouse) vocabulary; index 0 is
// the most popular under the skewed distribution.
var (
	statuses   = []string{"OPEN", "SHIPPED", "CLOSED"}
	priorities = []string{"MEDIUM", "LOW", "HIGH", "URGENT"}
)

// keysFor computes the deterministic key set of a source: the first
// sharedN keys of the group predecessor (if any) followed by the source's
// own keys starting at the low end of its declared range.
func keysFor(source string, ranges map[string]schema.KeyRange, n int) []int64 {
	keys := make([]int64, 0, n)
	if prev, ok := unionGroups[source]; ok {
		shared := int(math.Round(float64(n) * SharedFraction))
		prevLo := ranges[prev].Lo
		for i := 0; i < shared && len(keys) < n; i++ {
			keys = append(keys, prevLo+int64(i))
		}
	}
	lo := ranges[source].Lo
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, lo+int64(i))
	}
	return keys
}

// CustomerKeys returns the customer keys of a source for this period.
func (g *Generator) CustomerKeys(source string) []int64 {
	return keysFor(source, schema.CustKeys, g.CustomerCount())
}

// OrderKeysFor returns the order keys of a source for this period.
func (g *Generator) OrderKeysFor(source string) []int64 {
	return keysFor(source, schema.OrderKeys, g.OrderCount())
}

// ProductKeys returns the product keys of a source. All sources of a
// region share the region's product key range from key 0 upward, so the
// master-data consolidation dedups across the whole region.
func (g *Generator) ProductKeys(region string) []int64 {
	n := g.ProductCount()
	lo := schema.ProdKeys[region].Lo
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = lo + int64(i)
	}
	return keys
}

// CustomerFor derives the customer entity of a key. cities restricts the
// city assignment (source systems host customers of their own locations).
func (g *Generator) CustomerFor(key int64, cities []schema.CityRow) Customer {
	r := g.entityRNG("customer", key)
	c := Customer{
		Key:     key,
		Name:    pick(&r, g.cfg.Dist, firstNames) + " " + pick(&r, g.cfg.Dist, lastNames),
		Address: fmt.Sprintf("%s %d", pick(&r, g.cfg.Dist, streets), 1+r.Intn(200)),
		Phone:   fmt.Sprintf("+%d-%d-%07d", 1+r.Intn(99), 100+r.Intn(900), r.Intn(10_000_000)),
	}
	c.CityKey = cities[r.Index(g.cfg.Dist, len(cities))].Key
	if r.Bool(DirtyRate) {
		c.Dirty = true
		if r.Bool(0.5) {
			c.Name = "" // missing name: removed by cleansing
		} else {
			c.Phone = "INVALID"
		}
	}
	return c
}

// ProductFor derives the product entity of a key.
func (g *Generator) ProductFor(key int64) Product {
	r := g.entityRNG("product", key)
	group := schema.ProductGroupCatalog[r.Index(g.cfg.Dist, len(schema.ProductGroupCatalog))]
	p := Product{
		Key:      key,
		Name:     fmt.Sprintf("%s %s %d", pick(&r, g.cfg.Dist, brands), group.Name, key),
		Price:    math.Round((5+r.Float64()*995)*100) / 100,
		GroupKey: group.Key,
	}
	if r.Bool(DirtyRate) {
		p.Dirty = true
		if r.Bool(0.5) {
			p.Name = ""
		} else {
			p.Price = -p.Price // negative price: removed by cleansing
		}
	}
	return p
}

// OrderFor derives the order entity of a key, drawing the customer from
// custKeys and products from prodKeys using the configured distribution.
func (g *Generator) OrderFor(key int64, custKeys, prodKeys []int64, cities []schema.CityRow) Order {
	r := g.entityRNG("order", key)
	cust := custKeys[r.Index(g.cfg.Dist, len(custKeys))]
	o := Order{
		Key:      key,
		CustKey:  cust,
		CityKey:  cities[r.Index(g.cfg.Dist, len(cities))].Key,
		Date:     epoch.AddDate(0, 0, g.cfg.Period+r.Intn(orderDateWindowDays)),
		Status:   statuses[r.Index(g.cfg.Dist, len(statuses))],
		Priority: priorities[r.Index(g.cfg.Dist, len(priorities))],
	}
	nLines := 1 + r.Intn(MaxOrderLines)
	o.Lines = make([]OrderLine, nLines)
	for i := range o.Lines {
		qty := int64(1 + r.Intn(20))
		unit := math.Round((1+r.Float64()*499)*100) / 100
		o.Lines[i] = OrderLine{
			Pos:      int64(i + 1),
			ProdKey:  prodKeys[r.Index(g.cfg.Dist, len(prodKeys))],
			Quantity: qty,
			Price:    math.Round(float64(qty)*unit*100) / 100,
		}
		o.Total += o.Lines[i].Price
	}
	o.Total = math.Round(o.Total*100) / 100
	if r.Bool(MovementErrorRate) {
		o.Dirty = true
		o.Total = -o.Total // corrupted total: removed by movement cleansing
	}
	return o
}

// pick selects a string from a list under the configured distribution.
func pick(r *RNG, d Distribution, list []string) string {
	return list[r.Index(d, len(list))]
}

// Name pools for synthetic master data.
var (
	firstNames = []string{
		"Ada", "Bob", "Carla", "Dmitri", "Elena", "Frank", "Grace", "Hugo",
		"Ines", "Jamal", "Kira", "Liam", "Mei", "Noor", "Otto", "Priya",
	}
	lastNames = []string{
		"Schmidt", "Dubois", "Hansen", "Gruber", "Wang", "Kim", "Chan",
		"Miller", "Johnson", "Davis", "Larsen", "Novak", "Rossi", "Silva",
	}
	streets = []string{
		"Main Street", "Hauptstrasse", "Rue de la Paix", "Storgata",
		"Ringstrasse", "Nanjing Road", "Gangnam-daero", "Michigan Avenue",
		"Pratt Street", "State Street", "Harbor Road",
	}
	brands = []string{
		"Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Tyrell",
		"Cyberdyne", "Aperture", "Hooli",
	}
)

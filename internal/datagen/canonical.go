package datagen

import (
	"fmt"

	"repro/internal/schema"
)

// Canonical entity accessors. The dataset builders and the XML message
// generators derive everything from these, and the verification phase
// re-derives the expected warehouse contents from them. All are pure
// functions of (Config, arguments).

// sourceCities returns the city pool of a source system.
func sourceCities(source string) ([]schema.CityRow, error) {
	switch source {
	case schema.SysBerlinParis:
		return []schema.CityRow{*schema.CityByName(schema.LocBerlin), *schema.CityByName(schema.LocParis)}, nil
	case schema.SysTrondheim:
		return []schema.CityRow{*schema.CityByName("Trondheim")}, nil
	case schema.SysChicago:
		return []schema.CityRow{*schema.CityByName("Chicago")}, nil
	case schema.SysBaltimore:
		return []schema.CityRow{*schema.CityByName("Baltimore")}, nil
	case schema.SysMadison:
		return []schema.CityRow{*schema.CityByName("Madison")}, nil
	case schema.SysBeijing:
		return []schema.CityRow{*schema.CityByName("Beijing")}, nil
	case schema.SysSeoul:
		return []schema.CityRow{*schema.CityByName("Seoul")}, nil
	case schema.SysHongkong:
		return []schema.CityRow{*schema.CityByName("Hongkong")}, nil
	default:
		return nil, fmt.Errorf("datagen: unknown source %q", source)
	}
}

// sourceRegion returns the region of a source system.
func sourceRegion(source string) string {
	cities, err := sourceCities(source)
	if err != nil || len(cities) == 0 {
		return ""
	}
	return schema.CityRegionName(cities[0].Key)
}

// SourceOrders derives the canonical order entities of a source system's
// period dataset.
func (g *Generator) SourceOrders(source string) ([]Order, error) {
	cities, err := sourceCities(source)
	if err != nil {
		return nil, err
	}
	custKeys := g.CustomerKeys(source)
	prodKeys := g.ProductKeys(sourceRegion(source))
	ordKeys := g.OrderKeysFor(source)
	orders := make([]Order, len(ordKeys))
	for i, key := range ordKeys {
		orders[i] = g.OrderFor(key, custKeys, prodKeys, cities)
	}
	return orders, nil
}

// OrderDirty reports whether the order with the given key carries
// corrupted movement data. The dirty flag is a function of the key alone
// (the generator consumes the same number of random draws regardless of
// the candidate pools), so any source emitting the key agrees.
func (g *Generator) OrderDirty(key int64) bool {
	cities := []schema.CityRow{schema.CityCatalog[0]}
	return g.OrderFor(key, []int64{1}, []int64{1}, cities).Dirty
}

// CustomerDirty reports whether the customer with the given key fails the
// master-data quality checks; like OrderDirty it depends on the key only.
func (g *Generator) CustomerDirty(key int64) bool {
	cities := []schema.CityRow{schema.CityCatalog[0]}
	return g.CustomerFor(key, cities).Dirty
}

// ViennaOrderEntity derives the canonical order behind the i-th Vienna
// message (the same entity ViennaOrder serializes).
func (g *Generator) ViennaOrderEntity(i int) Order {
	key := schema.OrderKeys[schema.SysVienna].Lo + int64(i)
	p := &g.pools
	return g.OrderFor(key, p.viennaCust, p.europeProd, p.europeCities)
}

// HongkongOrderEntity derives the canonical order behind the i-th
// Hongkong message. Message orders use keys above the dataset orders of
// the same range so they never collide with the extracted Hongkong dataset.
func (g *Generator) HongkongOrderEntity(i int) Order {
	key := schema.OrderKeys[schema.SysHongkong].Lo + int64(g.OrderCount()) + int64(i)
	p := &g.pools
	return g.OrderFor(key, p.hongkongCust, p.asiaProd, p.hongkong)
}

// SanDiegoOrderEntity derives the canonical order behind the i-th San
// Diego message plus whether the serialized message carries an injected
// schema violation.
func (g *Generator) SanDiegoOrderEntity(i int) (Order, bool) {
	o, _, broken := g.sanDiegoOrder(i)
	return o, broken
}

// sanDiegoOrder derives the i-th San Diego order, whether its message is
// broken, and the message's error stream positioned after that draw.
func (g *Generator) sanDiegoOrder(i int) (Order, RNG, bool) {
	key := schema.OrderKeys[schema.SysSanDiego].Lo + int64(i)
	p := &g.pools
	o := g.OrderFor(key, p.sanDiegoCust, p.americaProd, p.sanDiego)
	r := g.indexRNG("sandiego-error", i)
	broken := r.Bool(SanDiegoErrorRate)
	return o, r, broken
}

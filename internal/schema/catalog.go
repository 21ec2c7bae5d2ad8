package schema

import (
	"slices"

	rel "repro/internal/relational"
)

// Reference (dimension) data shared by the whole scenario: the location
// hierarchy City -> Nation -> Region and the product hierarchy
// ProductGroup -> ProductLine. These catalogs are fixed; the Initializer
// loads them into the consolidated database, warehouse and marts, and the
// data generators draw customer cities and product groups from them.

// RegionRow is one row of the Region catalog.
type RegionRow struct {
	Key  int64
	Name string
}

// NationRow is one row of the Nation catalog.
type NationRow struct {
	Key       int64
	Name      string
	RegionKey int64
}

// CityRow is one row of the City catalog.
type CityRow struct {
	Key       int64
	Name      string
	NationKey int64
}

// RegionCatalog lists the three business regions.
var RegionCatalog = []RegionRow{
	{1, RegionEurope},
	{2, RegionAsia},
	{3, RegionAmerica},
}

// NationCatalog lists the nations of the scenario.
var NationCatalog = []NationRow{
	{10, "Germany", 1},
	{11, "France", 1},
	{12, "Norway", 1},
	{13, "Austria", 1},
	{20, "China", 2},
	{21, "South Korea", 2},
	{30, "United States", 3},
}

// CityCatalog lists the cities; it contains every source-system location
// of Fig. 1 plus the application cities Vienna and San Diego.
var CityCatalog = []CityRow{
	{100, "Berlin", 10},
	{101, "Paris", 11},
	{102, "Trondheim", 12},
	{103, "Vienna", 13},
	{200, "Beijing", 20},
	{201, "Hongkong", 20},
	{202, "Seoul", 21},
	{300, "Chicago", 30},
	{301, "Baltimore", 30},
	{302, "Madison", 30},
	{303, "San Diego", 30},
}

// ProductLineRow is one row of the ProductLine catalog.
type ProductLineRow struct {
	Key  int64
	Name string
}

// ProductGroupRow is one row of the ProductGroup catalog.
type ProductGroupRow struct {
	Key     int64
	Name    string
	LineKey int64
}

// ProductLineCatalog lists the product lines.
var ProductLineCatalog = []ProductLineRow{
	{1, "Electronics"},
	{2, "Furniture"},
	{3, "Clothing"},
}

// ProductGroupCatalog lists the product groups.
var ProductGroupCatalog = []ProductGroupRow{
	{10, "Phones", 1},
	{11, "Laptops", 1},
	{12, "Audio", 1},
	{20, "Chairs", 2},
	{21, "Desks", 2},
	{30, "Shirts", 3},
	{31, "Shoes", 3},
}

// CityByKey returns the city catalog row for a key, or nil.
func CityByKey(key int64) *CityRow {
	for i := range CityCatalog {
		if CityCatalog[i].Key == key {
			return &CityCatalog[i]
		}
	}
	return nil
}

// CityByName returns the city catalog row for a name, or nil.
func CityByName(name string) *CityRow {
	for i := range CityCatalog {
		if CityCatalog[i].Name == name {
			return &CityCatalog[i]
		}
	}
	return nil
}

// NationByKey returns the nation catalog row for a key, or nil.
func NationByKey(key int64) *NationRow {
	for i := range NationCatalog {
		if NationCatalog[i].Key == key {
			return &NationCatalog[i]
		}
	}
	return nil
}

// RegionByKey returns the region catalog row for a key, or nil.
func RegionByKey(key int64) *RegionRow {
	for i := range RegionCatalog {
		if RegionCatalog[i].Key == key {
			return &RegionCatalog[i]
		}
	}
	return nil
}

// CityRegionName resolves a city key to its region name; "" when unknown.
func CityRegionName(cityKey int64) string {
	c := CityByKey(cityKey)
	if c == nil {
		return ""
	}
	n := NationByKey(c.NationKey)
	if n == nil {
		return ""
	}
	r := RegionByKey(n.RegionKey)
	if r == nil {
		return ""
	}
	return r.Name
}

// CityNationName resolves a city key to its nation name; "" when unknown.
func CityNationName(cityKey int64) string {
	c := CityByKey(cityKey)
	if c == nil {
		return ""
	}
	n := NationByKey(c.NationKey)
	if n == nil {
		return ""
	}
	return n.Name
}

// CitiesInRegion returns the catalog cities belonging to a region, in
// catalog order. The catalog is static, so the slices are computed once;
// callers share them and must not modify them.
func CitiesInRegion(region string) []CityRow { return citiesByRegion[region] }

// citiesByRegion backs CitiesInRegion. Each slice is clipped, so an
// append by a caller copies instead of writing into a neighbour.
var citiesByRegion = func() map[string][]CityRow {
	m := make(map[string][]CityRow, len(RegionCatalog))
	for _, c := range CityCatalog {
		region := CityRegionName(c.Key)
		m[region] = append(m[region], c)
	}
	for region, cities := range m {
		m[region] = slices.Clip(cities)
	}
	return m
}()

// GroupByKey returns the product-group catalog row for a key, or nil.
func GroupByKey(key int64) *ProductGroupRow {
	for i := range ProductGroupCatalog {
		if ProductGroupCatalog[i].Key == key {
			return &ProductGroupCatalog[i]
		}
	}
	return nil
}

// LineByKey returns the product-line catalog row for a key, or nil.
func LineByKey(key int64) *ProductLineRow {
	for i := range ProductLineCatalog {
		if ProductLineCatalog[i].Key == key {
			return &ProductLineCatalog[i]
		}
	}
	return nil
}

// LoadLocationDims inserts the location catalog into Region/Nation/City
// tables (warehouse form). Missing tables are an error.
func LoadLocationDims(db *rel.Database) error {
	for _, r := range RegionCatalog {
		if err := db.MustTable("Region").Insert(rel.Row{rel.NewInt(r.Key), rel.NewString(r.Name)}); err != nil {
			return err
		}
	}
	for _, n := range NationCatalog {
		if err := db.MustTable("Nation").Insert(rel.Row{
			rel.NewInt(n.Key), rel.NewString(n.Name), rel.NewInt(n.RegionKey)}); err != nil {
			return err
		}
	}
	for _, c := range CityCatalog {
		if err := db.MustTable("City").Insert(rel.Row{
			rel.NewInt(c.Key), rel.NewString(c.Name), rel.NewInt(c.NationKey)}); err != nil {
			return err
		}
	}
	return nil
}

// LoadProductDims inserts the product hierarchy catalog into the
// ProductLine/ProductGroup tables.
func LoadProductDims(db *rel.Database) error {
	for _, l := range ProductLineCatalog {
		if err := db.MustTable("ProductLine").Insert(rel.Row{
			rel.NewInt(l.Key), rel.NewString(l.Name)}); err != nil {
			return err
		}
	}
	for _, g := range ProductGroupCatalog {
		if err := db.MustTable("ProductGroup").Insert(rel.Row{
			rel.NewInt(g.Key), rel.NewString(g.Name), rel.NewInt(g.LineKey)}); err != nil {
			return err
		}
	}
	return nil
}

// KeyRange is a half-open interval [Lo, Hi) of surrogate keys assigned to
// one source system. Ranges of sources feeding the same consolidation
// process overlap deliberately so the UNION DISTINCT operators (P03, P09)
// and the duplicate cleansing (P12) have real work to do.
type KeyRange struct{ Lo, Hi int64 }

// Contains reports whether k lies in the range.
func (r KeyRange) Contains(k int64) bool { return k >= r.Lo && k < r.Hi }

// Span returns the number of keys in the range.
func (r KeyRange) Span() int64 { return r.Hi - r.Lo }

// Customer key ranges per source system. The Fig. 4 SWITCH in P02 routes
// master data with Custkey < 1,000,000 to Berlin/Paris and the rest to
// Trondheim, so the European ranges respect that boundary.
var CustKeys = map[string]KeyRange{
	SysBerlinParis: {0, 1_000_000},
	SysTrondheim:   {1_000_000, 1_500_000},
	SysBeijing:     {2_000_000, 2_400_000},
	SysSeoul:       {2_300_000, 2_700_000}, // overlaps Beijing -> P09 dedup
	SysHongkong:    {2_700_000, 3_000_000},
	SysChicago:     {4_000_000, 4_400_000},
	SysBaltimore:   {4_300_000, 4_700_000}, // overlaps Chicago -> P03 dedup
	SysMadison:     {4_600_000, 5_000_000}, // overlaps Baltimore -> P03 dedup
	SysSanDiego:    {5_000_000, 5_300_000},
	SysVienna:      {0, 1_500_000}, // Vienna orders reference European customers
}

// OrderKeys mirrors CustKeys for order surrogate keys.
var OrderKeys = map[string]KeyRange{
	SysBerlinParis: {0, 10_000_000},
	SysTrondheim:   {10_000_000, 15_000_000},
	SysVienna:      {15_000_000, 20_000_000},
	SysBeijing:     {20_000_000, 24_000_000},
	SysSeoul:       {23_000_000, 27_000_000},
	SysHongkong:    {27_000_000, 30_000_000},
	SysChicago:     {40_000_000, 44_000_000},
	SysBaltimore:   {43_000_000, 47_000_000},
	SysMadison:     {46_000_000, 50_000_000},
	SysSanDiego:    {50_000_000, 53_000_000},
}

// ProdKeys assigns product key ranges per region; sources within a region
// share the range so master-data consolidation dedups across them.
var ProdKeys = map[string]KeyRange{
	RegionEurope:  {1_000, 2_000},
	RegionAsia:    {2_000, 3_000},
	RegionAmerica: {3_000, 4_000},
}

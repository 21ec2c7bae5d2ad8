package datagen

import (
	"fmt"
	"math"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

// Dataset builders: convert the canonical generated entities into the
// per-source relations the Initializer loads into the external systems.

// europeStateCode inverts schema.EuropeOrderStates.
func europeStateCode(status string) string {
	for code, s := range schema.EuropeOrderStates {
		if s == status {
			return code
		}
	}
	return "O"
}

// europePrioCode maps canonical priorities to Europe's integer scale.
func europePrioCode(p string) int64 {
	switch p {
	case "URGENT":
		return 1
	case "HIGH":
		return 2
	case "MEDIUM":
		return 3
	default:
		return 5
	}
}

// tpchStateCode inverts schema.TPCHOrderStates.
func tpchStateCode(status string) string {
	for code, s := range schema.TPCHOrderStates {
		if s == status {
			return code
		}
	}
	return "O"
}

// tpchPrioCode maps canonical priorities to TPC-H order priorities.
func tpchPrioCode(p string) string {
	switch p {
	case "URGENT":
		return "1-URGENT"
	case "HIGH":
		return "2-HIGH"
	case "MEDIUM":
		return "3-MEDIUM"
	default:
		return "5-LOW"
	}
}

// EuropeDataset holds the relations of one Europe-schema instance.
type EuropeDataset struct {
	City         *rel.Relation
	Company      *rel.Relation
	Customer     *rel.Relation
	Orders       *rel.Relation
	Orderline    *rel.Relation
	Product      *rel.Relation
	ProductGroup *rel.Relation
}

// EuropeCompanies is the number of companies per Europe instance.
const EuropeCompanies = 10

// Europe builds the dataset of a Europe instance (Berlin_Paris or
// Trondheim). Customers and orders carry the Location of their city so
// the shared Berlin/Paris instance supports the P05/P06 location filter.
func (g *Generator) Europe(source string) (*EuropeDataset, error) {
	var cities []schema.CityRow
	switch source {
	case schema.SysBerlinParis:
		cities = []schema.CityRow{*schema.CityByName(schema.LocBerlin), *schema.CityByName(schema.LocParis)}
	case schema.SysTrondheim:
		cities = []schema.CityRow{*schema.CityByName("Trondheim")}
	default:
		return nil, fmt.Errorf("datagen: %q is not a Europe instance", source)
	}
	ds := &EuropeDataset{}

	cityRows := make([]rel.Row, len(cities))
	for i, c := range cities {
		cityRows[i] = rel.Row{rel.NewInt(c.Key), rel.NewString(c.Name),
			rel.NewString(schema.CityNationName(c.Key))}
	}
	var err error
	if ds.City, err = rel.NewRelation(schema.EuropeCity, cityRows); err != nil {
		return nil, err
	}

	compRows := make([]rel.Row, EuropeCompanies)
	compRNG := g.rng("europe-companies", source)
	for i := range compRows {
		compRows[i] = rel.Row{
			rel.NewInt(int64(i + 1)),
			rel.NewString(pick(compRNG, g.cfg.Dist, brands) + " GmbH"),
			rel.NewInt(cities[compRNG.Intn(len(cities))].Key),
		}
	}
	if ds.Company, err = rel.NewRelation(schema.EuropeCompany, compRows); err != nil {
		return nil, err
	}

	custKeys := g.CustomerKeys(source)
	custRows := make([]rel.Row, len(custKeys))
	for i, key := range custKeys {
		c := g.CustomerFor(key, cities)
		city := schema.CityByKey(c.CityKey)
		compOf := g.entityRNG("company-of", key)
		comp := 1 + compOf.Intn(EuropeCompanies)
		custRows[i] = rel.Row{
			rel.NewInt(c.Key), rel.NewString(c.Name), rel.NewString(c.Address),
			rel.NewInt(int64(comp)), rel.NewInt(c.CityKey), rel.NewString(c.Phone),
			rel.NewString(city.Name),
		}
	}
	if ds.Customer, err = rel.NewRelation(schema.EuropeCustomer, custRows); err != nil {
		return nil, err
	}

	prodKeys := g.ProductKeys(schema.RegionEurope)
	prodRows := make([]rel.Row, len(prodKeys))
	for i, key := range prodKeys {
		p := g.ProductFor(key)
		prodRows[i] = rel.Row{rel.NewInt(p.Key), rel.NewString(p.Name),
			rel.NewFloat(p.Price), rel.NewInt(p.GroupKey)}
	}
	if ds.Product, err = rel.NewRelation(schema.EuropeProduct, prodRows); err != nil {
		return nil, err
	}

	groupRows := make([]rel.Row, len(schema.ProductGroupCatalog))
	for i, gr := range schema.ProductGroupCatalog {
		groupRows[i] = rel.Row{rel.NewInt(gr.Key), rel.NewString(gr.Name)}
	}
	if ds.ProductGroup, err = rel.NewRelation(schema.EuropeProductGroup, groupRows); err != nil {
		return nil, err
	}

	ordKeys := g.OrderKeysFor(source)
	ordRows := make([]rel.Row, len(ordKeys))
	var lineRows []rel.Row
	for i, key := range ordKeys {
		o := g.OrderFor(key, custKeys, prodKeys, cities)
		city := schema.CityByKey(o.CityKey)
		ordRows[i] = rel.Row{
			rel.NewInt(o.Key), rel.NewInt(o.CustKey), rel.NewTime(o.Date),
			rel.NewString(europeStateCode(o.Status)), rel.NewFloat(o.Total),
			rel.NewInt(europePrioCode(o.Priority)), rel.NewString(city.Name),
		}
		for _, l := range o.Lines {
			lineRows = append(lineRows, rel.Row{
				rel.NewInt(o.Key), rel.NewInt(l.Pos), rel.NewInt(l.ProdKey),
				rel.NewInt(l.Quantity), rel.NewFloat(l.Price),
			})
		}
	}
	if ds.Orders, err = rel.NewRelation(schema.EuropeOrders, ordRows); err != nil {
		return nil, err
	}
	if ds.Orderline, err = rel.NewRelation(schema.EuropeOrderline, lineRows); err != nil {
		return nil, err
	}
	return ds, nil
}

// TPCHDataset holds the relations of one America-schema instance.
type TPCHDataset struct {
	Customer *rel.Relation
	Orders   *rel.Relation
	Lineitem *rel.Relation
	Part     *rel.Relation
}

var mktSegments = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}

// TPCH builds the dataset of an America source (Chicago, Baltimore or
// Madison). Shared leading keys across the three sources give the P03
// UNION DISTINCT genuine duplicates.
func (g *Generator) TPCH(source string) (*TPCHDataset, error) {
	city := schema.CityByName(americaCity(source))
	if city == nil {
		return nil, fmt.Errorf("datagen: %q is not an America source", source)
	}
	cities := []schema.CityRow{*city}
	ds := &TPCHDataset{}

	custKeys := g.CustomerKeys(source)
	custRows := make([]rel.Row, len(custKeys))
	for i, key := range custKeys {
		c := g.CustomerFor(key, cities)
		r := g.entityRNG("tpch-extra", key)
		custRows[i] = rel.Row{
			rel.NewInt(c.Key), rel.NewString(c.Name), rel.NewString(c.Address),
			rel.NewInt(city.NationKey), rel.NewString(c.Phone),
			rel.NewFloat(math.Round(r.Float64()*10_000*100) / 100),
			rel.NewString(mktSegments[r.Intn(len(mktSegments))]),
		}
	}
	var err error
	if ds.Customer, err = rel.NewRelation(schema.TPCHCustomer, custRows); err != nil {
		return nil, err
	}

	prodKeys := g.ProductKeys(schema.RegionAmerica)
	partRows := make([]rel.Row, len(prodKeys))
	for i, key := range prodKeys {
		p := g.ProductFor(key)
		brand := "Brand#" + fmt.Sprint(1+key%5)
		partRows[i] = rel.Row{rel.NewInt(p.Key), rel.NewString(p.Name),
			rel.NewString(brand), rel.NewFloat(p.Price)}
	}
	if ds.Part, err = rel.NewRelation(schema.TPCHPart, partRows); err != nil {
		return nil, err
	}

	ordKeys := g.OrderKeysFor(source)
	ordRows := make([]rel.Row, len(ordKeys))
	var lineRows []rel.Row
	for i, key := range ordKeys {
		o := g.OrderFor(key, custKeys, prodKeys, cities)
		ordRows[i] = rel.Row{
			rel.NewInt(o.Key), rel.NewInt(o.CustKey),
			rel.NewString(tpchStateCode(o.Status)), rel.NewFloat(o.Total),
			rel.NewTime(o.Date), rel.NewString(tpchPrioCode(o.Priority)),
		}
		for _, l := range o.Lines {
			r := g.entityRNG("discount", o.Key*100+l.Pos)
			lineRows = append(lineRows, rel.Row{
				rel.NewInt(o.Key), rel.NewInt(l.Pos), rel.NewInt(l.ProdKey),
				rel.NewInt(l.Quantity), rel.NewFloat(l.Price),
				rel.NewFloat(math.Round(r.Float64()*10) / 100),
			})
		}
	}
	if ds.Orders, err = rel.NewRelation(schema.TPCHOrders, ordRows); err != nil {
		return nil, err
	}
	if ds.Lineitem, err = rel.NewRelation(schema.TPCHLineitem, lineRows); err != nil {
		return nil, err
	}
	return ds, nil
}

func americaCity(source string) string {
	switch source {
	case schema.SysChicago:
		return "Chicago"
	case schema.SysBaltimore:
		return "Baltimore"
	case schema.SysMadison:
		return "Madison"
	default:
		return ""
	}
}

// AsiaDataset holds the relations behind one Asia web service, in the
// service's own column spelling.
type AsiaDataset struct {
	Customers  *rel.Relation
	Products   *rel.Relation
	Orders     *rel.Relation
	OrderItems *rel.Relation
}

// Asia builds the dataset of an Asia web service (Beijing, Seoul or
// Hongkong). Beijing and Seoul share leading keys for the P09 dedup.
func (g *Generator) Asia(source string) (*AsiaDataset, error) {
	var cityName string
	var custSchema, prodSchema, ordSchema, itemSchema *rel.Schema
	switch source {
	case schema.SysBeijing:
		cityName = "Beijing"
		custSchema, prodSchema = schema.BeijingCustomer, schema.BeijingProduct
		ordSchema, itemSchema = schema.BeijingOrders, schema.BeijingOrderItems
	case schema.SysSeoul:
		cityName = "Seoul"
		custSchema, prodSchema = schema.SeoulCustomer, schema.SeoulProduct
		ordSchema, itemSchema = schema.SeoulOrders, schema.SeoulOrderItems
	case schema.SysHongkong:
		cityName = "Hongkong"
		custSchema, prodSchema = schema.HongkongCustomer, schema.HongkongProduct
		ordSchema, itemSchema = schema.HongkongOrders, schema.HongkongOrderItems
	default:
		return nil, fmt.Errorf("datagen: %q is not an Asia source", source)
	}
	cities := []schema.CityRow{*schema.CityByName(cityName)}
	ds := &AsiaDataset{}

	custKeys := g.CustomerKeys(source)
	custRows := make([]rel.Row, len(custKeys))
	for i, key := range custKeys {
		c := g.CustomerFor(key, cities)
		custRows[i] = rel.Row{rel.NewInt(c.Key), rel.NewString(c.Name),
			rel.NewString(c.Address), rel.NewString(cityName), rel.NewString(c.Phone)}
	}
	var err error
	if ds.Customers, err = rel.NewRelation(custSchema, custRows); err != nil {
		return nil, err
	}

	prodKeys := g.ProductKeys(schema.RegionAsia)
	prodRows := make([]rel.Row, len(prodKeys))
	for i, key := range prodKeys {
		p := g.ProductFor(key)
		prodRows[i] = rel.Row{rel.NewInt(p.Key), rel.NewString(p.Name),
			rel.NewFloat(p.Price), rel.NewInt(p.GroupKey)}
	}
	if ds.Products, err = rel.NewRelation(prodSchema, prodRows); err != nil {
		return nil, err
	}

	ordKeys := g.OrderKeysFor(source)
	ordRows := make([]rel.Row, len(ordKeys))
	var itemRows []rel.Row
	for i, key := range ordKeys {
		o := g.OrderFor(key, custKeys, prodKeys, cities)
		ordRows[i] = rel.Row{
			rel.NewInt(o.Key), rel.NewInt(o.CustKey), rel.NewTime(o.Date),
			rel.NewString(o.Status), rel.NewString(o.Priority), rel.NewFloat(o.Total),
		}
		for _, l := range o.Lines {
			itemRows = append(itemRows, rel.Row{
				rel.NewInt(o.Key), rel.NewInt(l.Pos), rel.NewInt(l.ProdKey),
				rel.NewInt(l.Quantity), rel.NewFloat(l.Price),
			})
		}
	}
	if ds.Orders, err = rel.NewRelation(ordSchema, ordRows); err != nil {
		return nil, err
	}
	if ds.OrderItems, err = rel.NewRelation(itemSchema, itemRows); err != nil {
		return nil, err
	}
	return ds, nil
}

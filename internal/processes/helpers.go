package processes

import (
	"fmt"

	rel "repro/internal/relational"
	"repro/internal/schema"
)

// Schema-mapping helpers. These are pure functions so the verification
// phase can re-derive the expected warehouse contents from the generated
// source datasets by applying exactly the mapping the processes apply.

// USCityKey deterministically assigns an American city to a customer key.
// The TPC-H schema carries no city attribute, so the consolidation has to
// synthesize the location linkage of the warehouse fact table.
func USCityKey(custkey int64) int64 {
	return usCities[int(custkey%int64(len(usCities)))].Key
}

// usCities are the American cities USCityKey assigns, in catalog order.
var usCities = schema.CitiesInRegion(schema.RegionAmerica)

// cityNames resolves a catalog city key to (city, nation, region) names.
func cityNames(cityKey int64) (string, string, string) {
	c := schema.CityByKey(cityKey)
	if c == nil {
		return "", "", ""
	}
	return c.Name, schema.CityNationName(cityKey), schema.CityRegionName(cityKey)
}

// EuropeCustomerToCDB maps an extracted Europe customer dataset to the CDB
// customer schema (denormalizing the city reference to names).
func EuropeCustomerToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	kc, nc, ac, pc, cc := s.MustOrdinal("Custkey"), s.MustOrdinal("Name"),
		s.MustOrdinal("Address"), s.MustOrdinal("Phone"), s.MustOrdinal("Citykey")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		city, nation, region := cityNames(row[cc].Int())
		rows[i] = rel.Row{
			row[kc], row[nc], row[ac], row[pc],
			rel.NewString(city), rel.NewString(nation), rel.NewString(region),
			rel.NewString(src), rel.NewBool(false),
		}
	}
	return rel.NewRelation(schema.CDBCustomer, rows)
}

// EuropeOrdersToCDB maps an extracted Europe orders dataset to the CDB
// orders schema, applying the semantic state/priority mappings and
// resolving the location name to the city key.
func EuropeOrdersToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	ko, kc, kd, ks, kt, kp, kl := s.MustOrdinal("Ordkey"), s.MustOrdinal("Custkey"),
		s.MustOrdinal("Orderdate"), s.MustOrdinal("State"), s.MustOrdinal("Total"),
		s.MustOrdinal("Prio"), s.MustOrdinal("Location")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		city := schema.CityByName(row[kl].Str())
		if city == nil {
			return nil, fmt.Errorf("processes: unknown location %q", row[kl].Str())
		}
		status, ok := schema.EuropeOrderStates[row[ks].Str()]
		if !ok {
			return nil, fmt.Errorf("processes: unknown Europe order state %q", row[ks].Str())
		}
		rows[i] = rel.Row{
			row[ko], row[kc], rel.NewInt(city.Key), row[kd],
			rel.NewString(status),
			rel.NewString(schema.EuropePrioToText(row[kp].Int())),
			row[kt], rel.NewString(src),
		}
	}
	return rel.NewRelation(schema.CDBOrders, rows)
}

// EuropeOrderlineToCDB maps Europe orderlines to the CDB orderline schema.
func EuropeOrderlineToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	ko, kp, kr, ka, kpr := s.MustOrdinal("Ordkey"), s.MustOrdinal("Pos"),
		s.MustOrdinal("Prodkey"), s.MustOrdinal("Amount"), s.MustOrdinal("Price")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		rows[i] = rel.Row{row[ko], row[kp], row[kr], row[ka], row[kpr], rel.NewString(src)}
	}
	return rel.NewRelation(schema.CDBOrderline, rows)
}

// EuropeProductToCDB maps Europe products to the CDB product schema.
func EuropeProductToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	kk, kn, kp, kg := s.MustOrdinal("Prodkey"), s.MustOrdinal("Name"),
		s.MustOrdinal("Price"), s.MustOrdinal("Groupkey")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		rows[i] = rel.Row{row[kk], row[kn], row[kp], row[kg],
			rel.NewString(src), rel.NewBool(false)}
	}
	return rel.NewRelation(schema.CDBProduct, rows)
}

// TPCHCustomerToCDB maps TPC-H customers (from US_Eastcoast) to the CDB
// customer schema.
func TPCHCustomerToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	kk, kn, ka, kp := s.MustOrdinal("C_Custkey"), s.MustOrdinal("C_Name"),
		s.MustOrdinal("C_Address"), s.MustOrdinal("C_Phone")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		city, nation, region := cityNames(USCityKey(row[kk].Int()))
		rows[i] = rel.Row{
			row[kk], row[kn], row[ka], row[kp],
			rel.NewString(city), rel.NewString(nation), rel.NewString(region),
			rel.NewString(src), rel.NewBool(false),
		}
	}
	return rel.NewRelation(schema.CDBCustomer, rows)
}

// TPCHOrdersToCDB maps TPC-H orders to the CDB orders schema, applying the
// semantic status/priority mappings.
func TPCHOrdersToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	ko, kc, ks, kt, kd, kp := s.MustOrdinal("O_Orderkey"), s.MustOrdinal("O_Custkey"),
		s.MustOrdinal("O_Orderstatus"), s.MustOrdinal("O_Totalprice"),
		s.MustOrdinal("O_Orderdate"), s.MustOrdinal("O_Orderpriority")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		status, ok := schema.TPCHOrderStates[row[ks].Str()]
		if !ok {
			return nil, fmt.Errorf("processes: unknown TPC-H order status %q", row[ks].Str())
		}
		rows[i] = rel.Row{
			row[ko], row[kc], rel.NewInt(USCityKey(row[kc].Int())), row[kd],
			rel.NewString(status),
			rel.NewString(schema.TPCHPriorityToText(row[kp].Str())),
			row[kt], rel.NewString(src),
		}
	}
	return rel.NewRelation(schema.CDBOrders, rows)
}

// TPCHLineitemToCDB maps TPC-H lineitems to the CDB orderline schema
// (dropping the discount — the warehouse stores extended prices only).
func TPCHLineitemToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	ko, kl, kp, kq, ke := s.MustOrdinal("L_Orderkey"), s.MustOrdinal("L_Linenumber"),
		s.MustOrdinal("L_Partkey"), s.MustOrdinal("L_Quantity"), s.MustOrdinal("L_Extendedprice")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		rows[i] = rel.Row{row[ko], row[kl], row[kp], row[kq], row[ke], rel.NewString(src)}
	}
	return rel.NewRelation(schema.CDBOrderline, rows)
}

// TPCHPartToCDB maps TPC-H parts to the CDB product schema. TPC-H parts
// carry no product-group reference; the consolidation assigns one
// deterministically from the catalog.
func TPCHPartToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	kk, kn, kp := s.MustOrdinal("P_Partkey"), s.MustOrdinal("P_Name"), s.MustOrdinal("P_Retailprice")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		group := schema.ProductGroupCatalog[int(row[kk].Int())%len(schema.ProductGroupCatalog)]
		rows[i] = rel.Row{row[kk], row[kn], row[kp], rel.NewInt(group.Key),
			rel.NewString(src), rel.NewBool(false)}
	}
	return rel.NewRelation(schema.CDBProduct, rows)
}

// AsiaOrdersToCDB finalizes a column-renamed Asia orders dataset into the
// CDB orders schema: reorder columns, attach the service's city key and
// the provenance column. Statuses and priorities are already canonical.
func AsiaOrdersToCDB(r *rel.Relation, cityKey int64, src string) (*rel.Relation, error) {
	s := r.Schema()
	ko, kc, kd, ks, kp, kt := s.MustOrdinal("Ordkey"), s.MustOrdinal("Custkey"),
		s.MustOrdinal("Orderdate"), s.MustOrdinal("Status"), s.MustOrdinal("Priority"),
		s.MustOrdinal("Totalprice")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		rows[i] = rel.Row{row[ko], row[kc], rel.NewInt(cityKey), row[kd],
			row[ks], row[kp], row[kt], rel.NewString(src)}
	}
	return rel.NewRelation(schema.CDBOrders, rows)
}

// AsiaCustomersToCDB finalizes a column-renamed Asia customers dataset:
// resolve the city name, attach provenance.
func AsiaCustomersToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	kk, kn, ka, kc, kp := s.MustOrdinal("Custkey"), s.MustOrdinal("Name"),
		s.MustOrdinal("Address"), s.MustOrdinal("City"), s.MustOrdinal("Phone")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		city := schema.CityByName(row[kc].Str())
		var cityName, nation, region string
		if city != nil {
			cityName, nation, region = cityNames(city.Key)
		}
		rows[i] = rel.Row{
			row[kk], row[kn], row[ka], row[kp],
			rel.NewString(cityName), rel.NewString(nation), rel.NewString(region),
			rel.NewString(src), rel.NewBool(false),
		}
	}
	return rel.NewRelation(schema.CDBCustomer, rows)
}

// AsiaProductsToCDB finalizes a column-renamed Asia products dataset.
func AsiaProductsToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	kk, kn, kp, kg := s.MustOrdinal("Prodkey"), s.MustOrdinal("Name"),
		s.MustOrdinal("Price"), s.MustOrdinal("Groupkey")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		rows[i] = rel.Row{row[kk], row[kn], row[kp], row[kg],
			rel.NewString(src), rel.NewBool(false)}
	}
	return rel.NewRelation(schema.CDBProduct, rows)
}

// AsiaItemsToCDB finalizes a column-renamed Asia order-items dataset.
func AsiaItemsToCDB(r *rel.Relation, src string) (*rel.Relation, error) {
	s := r.Schema()
	ko, kp, kr, kq, ke := s.MustOrdinal("Ordkey"), s.MustOrdinal("Pos"),
		s.MustOrdinal("Prodkey"), s.MustOrdinal("Quantity"), s.MustOrdinal("Extendedprice")
	rows := make([]rel.Row, r.Len())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		rows[i] = rel.Row{row[ko], row[kp], row[kr], row[kq], row[ke], rel.NewString(src)}
	}
	return rel.NewRelation(schema.CDBOrderline, rows)
}

// CheckRows validates every row of a dataset against a target schema —
// the dataset VALIDATE step of P12/P13 ("validates it, and if the
// validation succeeds, loads this data set").
func CheckRows(r *rel.Relation, target *rel.Schema) error {
	if !r.Schema().Equal(target) {
		return fmt.Errorf("processes: dataset schema %s does not match target %s",
			r.Schema(), target)
	}
	for i := 0; i < r.Len(); i++ {
		if err := target.CheckRow(r.Row(i)); err != nil {
			return fmt.Errorf("processes: row %d: %w", i, err)
		}
	}
	return nil
}

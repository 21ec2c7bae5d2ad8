package relational_test

import (
	"fmt"

	rel "repro/internal/relational"
)

// ExampleDatabase_Exec shows the SQL the relational substrate speaks: a
// multi-row INSERT (the Fig. 9 a) queue path) and WHERE-clause
// predicates as they travel on the remote database wire.
func ExampleDatabase_Exec() {
	db := rel.NewDatabase("demo")
	orders := db.MustCreateTable("Orders", rel.MustSchema([]rel.Column{
		rel.Col("Ordkey", rel.TypeInt),
		rel.NullableCol("Status", rel.TypeString),
		rel.NullableCol("Total", rel.TypeFloat),
	}, "Ordkey"))
	res, _ := db.Exec(`INSERT INTO Orders VALUES (1, 'OPEN', 100.5), (2, 'CLOSED', 50), (3, 'OPEN', 20)`)
	fmt.Printf("inserted %d rows\n", res.Get(0, "affected").Int())

	pred, _ := rel.ParsePredicate(`Status = 'OPEN' AND Total > 50`)
	open, _ := orders.SelectWhere(pred)
	for i := 0; i < open.Len(); i++ {
		fmt.Printf("order %d: %.1f\n", open.Get(i, "Ordkey").Int(), open.Get(i, "Total").Float())
	}
	// Output:
	// inserted 3 rows
	// order 1: 100.5
}

// ExampleRelation_UnionDistinct shows the UNION DISTINCT operator that
// processes P03 and P09 of the benchmark are built on.
func ExampleRelation_UnionDistinct() {
	schema := rel.MustSchema([]rel.Column{
		rel.Col("Key", rel.TypeInt), rel.Col("Source", rel.TypeString),
	}, "Key")
	chicago := rel.MustRelation(schema, []rel.Row{
		{rel.NewInt(1), rel.NewString("Chicago")},
		{rel.NewInt(2), rel.NewString("Chicago")},
	})
	baltimore := rel.MustRelation(schema, []rel.Row{
		{rel.NewInt(2), rel.NewString("Baltimore")}, // duplicate key
		{rel.NewInt(3), rel.NewString("Baltimore")},
	})
	merged, _ := chicago.UnionDistinct([]string{"Key"}, baltimore)
	for i := 0; i < merged.Len(); i++ {
		fmt.Printf("%d from %s\n", merged.Get(i, "Key").Int(), merged.Get(i, "Source").Str())
	}
	// Output:
	// 1 from Chicago
	// 2 from Chicago
	// 3 from Baltimore
}

// ExampleTable_AddTrigger shows the Fig. 9 queue-table pattern: an insert
// trigger reacting to queued messages.
func ExampleTable_AddTrigger() {
	db := rel.NewDatabase("engine")
	queue := db.MustCreateTable("P04_Queue", rel.MustSchema([]rel.Column{
		rel.Col("TID", rel.TypeInt), rel.Col("MSG", rel.TypeString),
	}, "TID"))
	queue.AddTrigger(rel.OnInsert, func(_ *rel.Table, _, new rel.Row) error {
		fmt.Printf("trigger processing message %d: %s\n", new[0].Int(), new[1].Str())
		return nil
	})
	if _, err := db.Exec(`INSERT INTO P04_Queue VALUES (1, '<ViennaOrder/>')`); err != nil {
		panic(err)
	}
	// Output:
	// trigger processing message 1: <ViennaOrder/>
}

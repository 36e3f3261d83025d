package datagen

import (
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// Figure1Lake builds the paper's running example (Figure 1): four small
// tables in which Jaguar and Puma are homographs (animal vs. car maker /
// company) while Panda and Toyota repeat with a single meaning.
func Figure1Lake() *lake.Lake {
	l := lake.New("figure1")

	t1 := table.New("T1")
	t1.AddColumn("Donor", "Google", "Volkswagen", "BMW", "Amazon")
	t1.AddColumn("At Risk", "Panda", "Puma", "Jaguar", "Pelican")
	t1.AddColumn("Donation", "1M", "2M", "0.9M", "1.5M")
	l.MustAdd(t1)

	t2 := table.New("T2")
	t2.AddColumn("name", "Panda", "Panda", "Lemur", "Jaguar")
	t2.AddColumn("locale", "Memphis", "Atlanta", "National", "San Diego")
	t2.AddColumn("num", "2", "2", "20", "8")
	l.MustAdd(t2)

	t3 := table.New("T3")
	t3.AddColumn("C1", "XE", "Prius", "500")
	t3.AddColumn("C2", "Jaguar", "Toyota", "Fiat")
	t3.AddColumn("C3", "UK", "Japan", "Italy")
	l.MustAdd(t3)

	t4 := table.New("T4")
	t4.AddColumn("Name", "Jaguar", "Puma", "Apple", "Toyota")
	t4.AddColumn("Revenue", "25.80", "4.64", "456", "123")
	t4.AddColumn("Total", "43224", "13000", "370870", "123456")
	l.MustAdd(t4)

	return l
}

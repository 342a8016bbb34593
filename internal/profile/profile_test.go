package profile

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newTestDirectory(t *testing.T) *Directory {
	t.Helper()
	d := NewDirectory()
	d.MustAdd(User{
		ID:    "mary",
		Name:  "Mary",
		Email: "mary@uci.example",
		Profiles: []Profile{
			{Group: GroupGradStudent, Department: "CS", OfficeID: "dbh/2/2065"},
			{Group: GroupStaff, Department: "ICS", Affiliation: "TA"},
		},
		DeviceMACs: []string{"aa:bb:cc:00:00:01", "aa:bb:cc:00:00:02"},
	})
	d.MustAdd(User{
		ID:         "prof-x",
		Name:       "Professor X",
		Profiles:   []Profile{{Group: GroupFaculty, Department: "CS", OfficeID: "dbh/2/2082"}},
		DeviceMACs: []string{"aa:bb:cc:00:00:03"},
	})
	d.MustAdd(User{
		ID:       "visitor-1",
		Profiles: []Profile{{Group: GroupVisitor}},
	})
	return d
}

func TestAddAndLookup(t *testing.T) {
	d := newTestDirectory(t)
	u, ok := d.Lookup("mary")
	if !ok || u.Name != "Mary" {
		t.Fatalf("Lookup(mary) = %v, %v", u, ok)
	}
	if _, ok := d.Lookup("nobody"); ok {
		t.Error("Lookup(nobody) succeeded")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestAddErrors(t *testing.T) {
	d := newTestDirectory(t)
	if err := d.Add(User{}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := d.Add(User{ID: "mary"}); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("duplicate user: got %v", err)
	}
	err := d.Add(User{ID: "evil", DeviceMACs: []string{"aa:bb:cc:00:00:01"}})
	if !errors.Is(err, ErrDuplicateMAC) {
		t.Errorf("duplicate MAC: got %v", err)
	}
	// Failed Add must not leave partial state behind.
	if _, ok := d.Lookup("evil"); ok {
		t.Error("failed Add left user registered")
	}
}

func TestLookupMAC(t *testing.T) {
	d := newTestDirectory(t)
	u, ok := d.LookupMAC("aa:bb:cc:00:00:02")
	if !ok || u.ID != "mary" {
		t.Fatalf("LookupMAC = %v, %v; want mary", u, ok)
	}
	if _, ok := d.LookupMAC("ff:ff:ff:ff:ff:ff"); ok {
		t.Error("LookupMAC(unknown) succeeded")
	}
}

func TestGroupsAndMembers(t *testing.T) {
	d := newTestDirectory(t)
	mary, _ := d.Lookup("mary")
	if !mary.HasGroup(GroupGradStudent) || !mary.HasGroup(GroupStaff) {
		t.Error("mary should be grad-student and staff")
	}
	if mary.HasGroup(GroupFaculty) {
		t.Error("mary should not be faculty")
	}
	groups := mary.Groups()
	if len(groups) != 2 || groups[0] != GroupGradStudent || groups[1] != GroupStaff {
		t.Errorf("Groups() = %v", groups)
	}
	if got := d.Members(GroupFaculty); len(got) != 1 || got[0] != "prof-x" {
		t.Errorf("Members(faculty) = %v", got)
	}
	if got := d.Members(GroupBuildingAdmin); len(got) != 0 {
		t.Errorf("Members(building-admin) = %v, want empty", got)
	}
}

func TestOffices(t *testing.T) {
	d := newTestDirectory(t)
	mary, _ := d.Lookup("mary")
	if got := mary.Offices(); len(got) != 1 || got[0] != "dbh/2/2065" {
		t.Errorf("Offices() = %v", got)
	}
	v, _ := d.Lookup("visitor-1")
	if got := v.Offices(); len(got) != 0 {
		t.Errorf("visitor Offices() = %v, want empty", got)
	}
	if got := d.OfficeOwner("dbh/2/2065"); len(got) != 1 || got[0] != "mary" {
		t.Errorf("OfficeOwner = %v", got)
	}
	if got := d.OfficeOwner("dbh/9/none"); len(got) != 0 {
		t.Errorf("OfficeOwner(unknown) = %v", got)
	}
}

func TestDuplicateOfficeProfilesDeduped(t *testing.T) {
	d := NewDirectory()
	d.MustAdd(User{ID: "u", Profiles: []Profile{
		{Group: GroupStaff, OfficeID: "r1"},
		{Group: GroupStudent, OfficeID: "r1"},
	}})
	u, _ := d.Lookup("u")
	if got := u.Offices(); len(got) != 1 {
		t.Errorf("Offices() = %v, want deduped single entry", got)
	}
}

func TestAllSorted(t *testing.T) {
	d := newTestDirectory(t)
	all := d.All()
	if len(all) != 3 {
		t.Fatalf("All() = %d users", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Errorf("All() not sorted at %d", i)
		}
	}
}

func TestAddCopiesSlices(t *testing.T) {
	d := NewDirectory()
	profiles := []Profile{{Group: GroupStaff}}
	macs := []string{"aa:aa:aa:aa:aa:aa"}
	d.MustAdd(User{ID: "u", Profiles: profiles, DeviceMACs: macs})
	profiles[0].Group = GroupFaculty
	macs[0] = "bb:bb:bb:bb:bb:bb"
	u, _ := d.Lookup("u")
	if u.Profiles[0].Group != GroupStaff {
		t.Error("Add did not copy Profiles slice")
	}
	if _, ok := d.LookupMAC("aa:aa:aa:aa:aa:aa"); !ok {
		t.Error("Add did not copy DeviceMACs slice")
	}
}

// TestDirectoryComputesGroupsOnce: a stored user's Groups() is the
// slice Add computed (enforcement asks on every decision), and a
// stored user copied, edited and added under a new ID gets its own.
func TestDirectoryComputesGroupsOnce(t *testing.T) {
	d := NewDirectory()
	d.MustAdd(User{ID: "u", Profiles: []Profile{{Group: GroupStaff}, {Group: GroupFaculty}}})
	u, _ := d.Lookup("u")
	if n := testing.AllocsPerRun(10, func() { u.Groups() }); n != 0 {
		t.Errorf("Groups() on a stored user allocates %v times, want 0", n)
	}
	v := *u
	v.ID = "v"
	v.Profiles = []Profile{{Group: GroupVisitor}}
	d.MustAdd(v)
	stored, _ := d.Lookup("v")
	if got := stored.Groups(); len(got) != 1 || got[0] != GroupVisitor {
		t.Errorf("edited copy's Groups() = %v, want [%s]", got, GroupVisitor)
	}
	if got := u.Groups(); len(got) != 2 || got[0] != GroupFaculty || got[1] != GroupStaff {
		t.Errorf("original's Groups() = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDirectory()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("user-%d", i)
			if err := d.Add(User{ID: id, DeviceMACs: []string{fmt.Sprintf("00:00:00:00:00:%02x", i)}}); err != nil {
				t.Errorf("Add(%s): %v", id, err)
			}
			d.Lookup(id)
			d.All()
			d.Members(GroupStaff)
		}(i)
	}
	wg.Wait()
	if d.Len() != 20 {
		t.Errorf("Len = %d, want 20", d.Len())
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAdd(dup) did not panic")
		}
	}()
	d := NewDirectory()
	d.MustAdd(User{ID: "u"})
	d.MustAdd(User{ID: "u"})
}

package main

import "testing"

func TestLoadWorkflowCatalogue(t *testing.T) {
	wf, err := load("tpch6-s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if wf.NumTasks() != 33 {
		t.Fatalf("tasks = %d", wf.NumTasks())
	}
	if _, err := load("bogus", 1); err == nil {
		t.Fatal("unknown key accepted")
	}
}

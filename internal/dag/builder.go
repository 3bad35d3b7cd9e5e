package dag

import "fmt"

// builderChunk is the slab granularity of the builder's task arena: tasks
// are allocated 256 at a time so building a workflow costs O(tasks/256)
// allocations instead of one per task.
const builderChunk = 256

// Builder incrementally assembles a workflow. It assigns dense task and
// stage IDs, derives Succs from Deps, and validates the result on Build.
//
// Tasks and dependency lists are carved out of builder-owned arenas; the
// finished Workflow keeps them alive, so the arenas cost nothing beyond the
// data itself.
type Builder struct {
	name   string
	tasks  []*Task
	stages []*Stage
	arena  [][]Task
	deps   []TaskID
	err    error
}

// NewBuilder returns a builder for a workflow with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddStage creates a new stage and returns its ID.
func (b *Builder) AddStage(name string) StageID {
	id := StageID(len(b.stages))
	b.stages = append(b.stages, &Stage{ID: id, Name: name})
	return id
}

// takeDeps copies deps into the dependency arena and returns the stable
// sub-slice. Growth reallocates the arena, but previously returned slices
// keep pointing at the old backing array, so they stay valid; the capped
// capacity keeps later appends from ever writing into a returned slice.
func (b *Builder) takeDeps(deps []TaskID) []TaskID {
	if len(deps) == 0 {
		return nil
	}
	n := len(b.deps)
	b.deps = append(b.deps, deps...)
	return b.deps[n : n+len(deps) : n+len(deps)]
}

// AddTask creates a task in the given stage and returns its ID. Times are in
// seconds, sizes in MB. Dependencies must reference already-created tasks;
// the deps slice is copied, so callers may reuse it.
func (b *Builder) AddTask(stage StageID, name string, execTime, transferTime, inputSize float64, deps ...TaskID) TaskID {
	if b.err != nil {
		return -1
	}
	if int(stage) < 0 || int(stage) >= len(b.stages) {
		b.err = fmt.Errorf("dag: AddTask(%q): unknown stage %d", name, stage)
		return -1
	}
	id := TaskID(len(b.tasks))
	for _, d := range deps {
		if int(d) < 0 || int(d) >= len(b.tasks) {
			b.err = fmt.Errorf("dag: AddTask(%q): dependency %d not yet created", name, d)
			return -1
		}
	}
	if int(id)/builderChunk == len(b.arena) {
		b.arena = append(b.arena, make([]Task, builderChunk))
	}
	t := &b.arena[int(id)/builderChunk][int(id)%builderChunk]
	*t = Task{
		ID:           id,
		Stage:        stage,
		Name:         name,
		Deps:         b.takeDeps(deps),
		ExecTime:     execTime,
		TransferTime: transferTime,
		InputSize:    inputSize,
	}
	b.tasks = append(b.tasks, t)
	b.stages[stage].Tasks = append(b.stages[stage].Tasks, id)
	return id
}

// SetOutputSize records the output volume of a task (optional metadata).
func (b *Builder) SetOutputSize(id TaskID, size float64) {
	if b.err != nil || int(id) < 0 || int(id) >= len(b.tasks) {
		return
	}
	b.tasks[id].OutputSize = size
}

// Build finalizes the workflow: derives successor lists and validates.
// Successor lists are carved from one exactly-sized slab (two allocations
// for the whole workflow, not one per edge).
func (b *Builder) Build() (*Workflow, error) {
	if b.err != nil {
		return nil, b.err
	}
	counts := make([]int32, len(b.tasks))
	total := 0
	for _, t := range b.tasks {
		total += len(t.Deps)
		for _, d := range t.Deps {
			counts[d]++
		}
	}
	slab := make([]TaskID, total)
	off := 0
	for _, t := range b.tasks {
		c := int(counts[t.ID])
		if c == 0 {
			t.Succs = nil // match the omitted-field shape of decoded workflows
			continue
		}
		t.Succs = slab[off : off : off+c]
		off += c
	}
	for _, t := range b.tasks {
		for _, d := range t.Deps {
			dt := b.tasks[d]
			dt.Succs = append(dt.Succs, t.ID)
		}
	}
	w := &Workflow{Name: b.name, Tasks: b.tasks, Stages: b.stages}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// MustBuild is Build for construction code where an error is a programming
// bug (e.g. the named Table I generators).
func (b *Builder) MustBuild() *Workflow {
	w, err := b.Build()
	if err != nil {
		panic(err)
	}
	return w
}

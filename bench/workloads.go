package main

// workload is one configuration of the system the benchmark measures.
// Every workload replicates the same life cycle — build, save, update,
// open, query, snippet — and reports every end-to-end metric; they
// differ in what serves the queries and in where the run's time goes.
type workload struct {
	Name string
	Why  string
	// Serve is what the op stream is issued to:
	//   built  the catalog IndexFS returned, after Update, in process
	//   heap   LoadDir of the saved directory, in process
	//   lazy   OpenDir with lazyCacheBytes of block cache, in process
	//   node   LoadDir behind one server.New handler, over HTTP
	//   fleet  two OpenDirShards workers behind a broker, over HTTP
	Serve string
	// Replicates is how many timed replicates of the life cycle follow
	// the discarded first one.
	Replicates int
	// OpsPerSecond sizes the timed query passes: -seconds times this many
	// ops in all, split evenly over the replicates — a fixed amount of
	// work that takes about -seconds on the calibration machine.
	OpsPerSecond int
	// SnippetOps is the length of each replicate's snippet phase.
	SnippetOps int
}

// http reports whether the workload's clients go through HTTP.
func (w *workload) http() bool { return w.Serve == "node" || w.Serve == "fleet" }

// lazyCacheBytes is query-lazy's block-cache budget: about a third of
// the decoded size of the posting lists one replicate's ops touch
// (README, "Working set"), so the workload is larger than the program's
// cache.
const lazyCacheBytes = 3 << 20

var workloads = []workload{
	{
		Name: "build-update", Serve: "built", Replicates: 7, OpsPerSecond: 1050, SnippetOps: 8,
		Why: "index generator and incremental update: walk/extract/index/shard/delta do the work; queries only sample the live updated catalog",
	},
	{
		Name: "query-heap", Serve: "heap", Replicates: 7, OpsPerSecond: 2100, SnippetOps: 10,
		Why: "one in-process client on the eager heap catalog: search and postings only; bypasses segment, cache, server and broker",
	},
	{
		Name: "query-lazy", Serve: "lazy", Replicates: 7, OpsPerSecond: 1400, SnippetOps: 2,
		Why: "same stream on lazily opened segments with a block cache a third of the working set: segment decode and cache churn dominate",
	},
	{
		Name: "serve-node", Serve: "node", Replicates: 7, OpsPerSecond: 2450, SnippetOps: 10,
		Why: "nproc HTTP clients on one server with the result cache over the heap catalog: adds parse, JSON, HTTP and Zipf cache hits",
	},
	{
		Name: "serve-fleet", Serve: "fleet", Replicates: 7, OpsPerSecond: 1050, SnippetOps: 10,
		Why: "same HTTP stream through a broker over two lazy shard-subset workers: adds the df round and the scatter-gather hop",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

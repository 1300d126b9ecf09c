(** The scheduler's name, for the benchmark's host line.

    The simulator has one pending-event store, the binary heap
    ({!Heap}) inside {!Sim}. This stub exists only so
    [perfbench/bench.ml] can keep printing [backend=heap]; it goes at the
    next change to the benchmark. *)

type backend = Heap

val backend_to_string : backend -> string

val default : unit -> backend
(** Always {!Heap}. *)

(** Chrome [trace_event] export of a flight-recorder run.

    Produces the JSON object format ([{"traceEvents": [...]}]) loadable
    in [chrome://tracing] and Perfetto. One track ("thread") per belt
    plus a mutator track: collection pauses and their phase spans are
    complete ("X") events on the mutator track, drawn from the
    [Gc_stats.collection] records the recorder views, so every viewed
    collection has its span whatever the ring dropped; a parallel
    collection adds each domain's phase spans on that domain's track.
    Frame grants/frees and belt advances are instants on their belt's
    track, and the copy reserve is a counter series; those come from
    the ring. Timestamps are microseconds since the recorder attached
    ({!Recorder.us_since_attach}), which is exactly what [ts]/[dur]
    expect. *)

val events_json :
  ?pid:int -> ?process_name:string -> Recorder.t -> Beltway_util.Json.t list
(** The flat event list (metadata events first), for embedding in a
    merged multi-process trace. *)

val to_json : ?pid:int -> ?process_name:string -> Recorder.t -> Beltway_util.Json.t
(** One recorder as a complete trace document. *)

val merge : (string * Recorder.t) list -> Beltway_util.Json.t
(** Several recorders as one trace document, each as its own process
    (labelled by the given name) — the bench harness's six-benchmark
    sweep view. *)

val write_file : string -> Beltway_util.Json.t -> unit
(** Pretty-print a JSON document to a file. *)

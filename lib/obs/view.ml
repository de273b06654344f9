module Gc_stats = Beltway.Gc_stats

type t = { stats : Gc_stats.t; first : int; mutable upto : int }

let attach gc =
  let stats = Beltway.Gc.stats gc in
  { stats; first = Gc_stats.gcs stats; upto = max_int }

let detach v = v.upto <- Gc_stats.gcs v.stats
let length v = min v.upto (Gc_stats.gcs v.stats) - v.first
let get v i = Beltway_util.Vec.get v.stats.Gc_stats.collections (v.first + i)

let iter v f =
  for i = 0 to length v - 1 do
    f (get v i)
  done

let to_list v = List.init (length v) (get v)

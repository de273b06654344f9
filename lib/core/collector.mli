(** The collector: one pipeline that reclaims a *set* of increments,
    run by one of three drains.

    A plan is a set of increments collected together (the downward
    closure of the chosen increment in collect-stamp order, so every
    unremembered inter-increment pointer into the plan originates
    inside the plan). Roots are the mutator root set plus every
    remembered slot whose target frame is in the plan and whose source
    frame is not (or, under the card barrier, every object of an
    increment with a dirty frame outside the plan).

    Every collection runs the same phases: seal the plan, visit the
    roots, visit the remembered slots or dirty cards, drain the grey
    set, reclaim the plan's frames, and log one [Gc_stats.collection]
    record. The installed strategy chooses the drain, which decides
    what visiting a reference does and how grey work is held:

    - copying, one domain: a Cheney scan. Survivors are copied to the
      open increment of their promotion-target belt, per {e source
      increment}, so one pass handles a nursery increment promoting up
      and an old increment compacting onto its own belt (the paper's
      collect-lower-and-higher-increments-together optimisation falls
      out for free). Scanning a copied object re-applies the write
      barrier's predicate to every outgoing reference: survivors live
      in new frames with new stamps, so their interesting pointers are
      re-recorded and all remsets relating to the evacuated frames can
      simply be dropped;
    - copying, [gc_domains > 1]: the same copy, sharded over a
      work-stealing team of domains;
    - mark-sweep and mark-compact: survivors are promoted logically
      (restamped in place), marked through a side bitmap and a mark
      stack, then swept into free lists or slid to the front of their
      own frames.

    Pinned (large-object) increments are marked in place under every
    drain. *)

type plan = {
  increments : Increment.t list; (** downward-closed in stamp order *)
  reason : Gc_stats.reason;
  emergency : bool;
      (** planned although the conservative reserve test failed *)
  full_heap : bool;
}

val collect : State.t -> plan -> Gc_stats.collection
(** Run the collection with the installed strategy's drain: retain the
    live objects (evacuated or in place), update roots and remembered
    slots, free the plan's dead frames, log and return the collection
    record. @raise State.Out_of_memory if the copy reserve proves
    insufficient (heap too small for this program). *)

val plan_frames : plan -> int
val plan_words : plan -> int

val evacuation_frames : plan -> int
(** Frames the plan may need to copy somewhere else: its occupancy
    minus pinned (large-object) increments, which are marked in place
    rather than evacuated. Plan feasibility is judged on this. *)

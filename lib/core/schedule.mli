(** The collection schedule: the mechanical interpreter of the
    installed {!State.policy}.

    The schedule owns what is invariant across collectors, and asks
    the policy for everything else:

    - {e plan shape} (schedule): a plan is always the downward closure,
      in collect stamp order, of a chosen target increment — every
      live increment stamped no later than the target is collected
      with it. This is what makes independent increment collection
      sound: pointers into the plan from outside it are exactly the
      remembered ones.
    - {e target choice} (policy [target]): candidates in decreasing
      preference order — lowest-belt for generational/Beltway
      policies, globally oldest for older-first, anything a new
      registry entry likes.
    - {e feasibility} (schedule): if the chosen plan's evacuation
      cannot fit in the free frames, the schedule degrades along the
      policy's remaining candidates, then falls back to an emergency
      plan.
    - {e trigger cascade} (policy [alloc_trigger] and friends): the
      policy returns an {!State.alloc_action} verdict; the schedule
      executes it (collect, grant a frame, open another allocation
      window, split the nursery).
    - {e nursery refresh} (policy [refresh_nursery]): run before a new
      nursery increment is opened — BOF belt flipping lives there.

    [prepare_alloc] is the mutator-facing entry point: after it
    returns, the nursery increment can satisfy the requested bump
    allocation. It raises [State.Out_of_memory] when a full cascade
    cannot make room — the analogue of a benchmark failing at a heap
    size in the paper. *)

val nursery : State.t -> Increment.t
(** The open nursery increment, creating one (running the policy's
    nursery refresh first when there is no open increment). *)

val choose_plan : State.t -> reason:Gc_stats.reason -> Collector.plan option
(** Select a feasible plan per policy; [None] when nothing is
    collectible (empty heap). The plan's [emergency] flag is set when
    no candidate passed the conservative reserve test. *)

val collect_now : State.t -> reason:Gc_stats.reason -> Gc_stats.collection option
(** Choose a plan and run it. *)

val full_collect : State.t -> Gc_stats.collection option
(** Collect everything (closure of the highest-stamped increment).
    Exposed for tests and for complete configurations' last resort;
    respects feasibility (may raise [State.Out_of_memory]). *)

val prepare_alloc : State.t -> size:int -> Increment.t
(** Make room for a [size]-word allocation and return the increment
    that takes it: the open nursery when its bump tail or free list has
    room. Under an in-place strategy with no whole frame left, an
    allocation the nursery cannot take goes to the first increment in
    {!State.live_increments} order with room (the free-list fallback)
    before the trigger cascade runs. That search resumes, per request
    size, where the previous one stopped: between collections an
    increment that had no room for a size never gains it (the snapshot
    in [State.fit_incs], dropped at every collection). Neither the
    call nor the search allocates a closure or an option cell.
    @raise State.Out_of_memory when the heap is too small.
    @raise Invalid_argument if [size] exceeds a frame. *)

val prepare_alloc_in : State.t -> belt:int -> size:int -> Increment.t
(** Make room for a pretenured [size]-word allocation on a higher belt
    (segregation by allocation site, paper S5) and return that belt's
    open increment, or the free-list fallback's choice as in
    {!prepare_alloc}. Only the heap-full and remset triggers apply.
    @raise Invalid_argument for belt 0 (use {!prepare_alloc}), an
    out-of-range belt, or an oversized request.
    @raise State.Out_of_memory when the heap is too small. *)

val alloc_large : State.t -> size:int -> Increment.t
(** Allocate a [size]-word pinned large object on the LOS belt, running
    the collection cascade first if the frames it needs would eat into
    the copy reserve. Returns the new single-object increment.
    @raise State.Out_of_memory when the heap is too small.
    @raise Invalid_argument when the configuration has no LOS. *)

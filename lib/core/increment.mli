(** Increments: the unit of collection (paper S2.2).

    An increment is an independently collectible region of memory,
    realised as an ordered list of frames sharing one collect stamp,
    with bump-pointer allocation in the last frame. Because copying
    never packs perfectly (frame tails are wasted when an object does
    not fit), each retired frame remembers how many words it actually
    used, which lets a Cheney scan walk the increment's objects without
    any per-frame object table. *)

type t = {
  id : int;
  mutable belt : int; (* belt index; updated when BOF flips belts *)
  mutable stamp : int;
  frames : Beltway_util.Int_vec.t; (* frame indices, allocation order *)
  frame_used : Beltway_util.Int_vec.t; (* used words per retired frame *)
  mutable cursor : Addr.t; (* bump pointer; null if no frame yet *)
  mutable limit : Addr.t; (* end of current frame *)
  mutable words_used : int; (* live-words estimate: words ever bumped *)
  mutable objects : int; (* objects allocated/copied into this increment *)
  bound_frames : int option; (* None = may grow to all usable memory *)
  mutable sealed : bool; (* closed to further allocation *)
  pinned : bool;
      (* a large-object-space increment: exactly one object, never
         copied; reclaimed whole when unreachable *)
  mutable in_plan : bool;
      (* member of the plan currently being collected; lets the
         collector and [State.open_inc] test plan membership without a
         hashtable. Always false outside a collection. *)
  mutable gc_mark : bool;
      (* transient per-collection mark (pinned increment reached, or
         queued for a card scan). Always false outside a collection. *)
  free_list : int Beltway_util.Vec.t;
      (* flat (address, words) pairs indexing the filler objects left
         by a sweep; empty under the copying strategy *)
  mutable free_word_count : int; (* sum of the free-list hole sizes *)
  mutable hole_index : int array;
      (* max-tree over blocks of free-list pairs (see {!max_hole}):
         lets the fit tests skip every block with no hole big enough;
         empty until the first hole is pushed *)
}

type pos
(** A scan position within an increment (Cheney scan pointer). *)

val create :
  id:int -> belt:int -> stamp:int -> bound_frames:int option -> t

val create_pinned :
  id:int -> belt:int -> stamp:int -> frames:int list -> Memory.t -> size:int -> t
(** A sealed, pinned increment holding exactly one [size]-word object
    laid out from the base of the first frame; the frames must be
    address-contiguous (consecutive indices).
    @raise Invalid_argument on an empty frame list. *)

val base_object : t -> Memory.t -> Addr.t
(** The single object of a pinned increment.
    @raise Invalid_argument if not pinned. *)

val frame_count : t -> int

val used_of_frame : t -> Memory.t -> int -> int
(** Used words of the increment's [fi]-th frame: the recorded extent
    of a retired frame, the bump cursor's progress in the frame under
    it (zero for an index out of range). The in-place strategies walk
    and rebuild increments frame by frame with this. *)

val occupancy_frames : t -> int
(** Frames held (the collection/copy-reserve accounting unit). *)

val words_used : t -> int

val wasted_words : t -> Memory.t -> int
(** Frame words held minus words used (fragmentation at frame seams,
    the reason the paper's copy reserve must be "slightly more
    generous"). *)

val at_bound : t -> bool
(** True when [bound_frames] is reached and the current frame cannot be
    extended further. *)

val add_frame : t -> Memory.t -> int -> unit
(** Append a freshly allocated frame and point the bump cursor at it.
    The caller owns budget accounting and frame-info stamping.
    @raise Invalid_argument if sealed or at bound. *)

val try_bump : t -> size:int -> Addr.t option
(** Bump-allocate [size] words in the current frame; [None] when it
    does not fit (caller decides whether to extend or collect). The
    returned address is uninitialised (zeroed) memory. *)

val bump_or_null : t -> size:int -> Addr.t
(** {!try_bump} without the [option] cell: [Addr.null] when the
    allocation does not fit. The allocation-free form the collector's
    copy loop and the mutator allocation path use. *)

val unbump : t -> addr:Addr.t -> size:int -> unit
(** Roll back the most recent {!bump_or_null} of [size] words at
    [addr] — the parallel collector's lost-forwarding-race path. Only
    valid immediately after the matching bump, with no intervening
    allocation or frame grant in this increment.
    @raise Invalid_argument if [addr + size] is not the cursor. *)

val seal : t -> unit
(** Close to further allocation (nursery handoff for the time-to-die
    trigger; plan membership seals too). *)

(** {2 Free-list reallocation}

    The mark-sweep strategy turns each dead run into a *filler object*
    (even header, odd-immediate payload) so the object stream stays
    walkable, and indexes the holes here as flat (address, words)
    pairs. Allocation is first-fit with a remainder rule: a hole is
    taken exactly or split leaving at least [Object_model.header_words]
    words for the remainder filler. An exact fit swap-removes its pair
    (the last pair moves into its place), a split rewrites its pair in
    place; the pair order, and so the placement, is exactly that of a
    linear first-fit walk over [free_list].

    [hole_index] is a max-tree over blocks of 32 consecutive pairs:
    with [cap] leaves ([Array.length hole_index = 2 * cap], [cap] a
    power of two), node 1 is the root, node [k]'s children are [2k]
    and [2k + 1], and leaf [cap + b] holds the largest hole of block
    [b]. A first-fit search enters only subtrees whose largest hole is
    at least the request, so it costs O(32 log blocks) where the walk
    cost one step per pair before the fit. The tree holds [2 * cap]
    words, [cap] the power of two at or above the block count: for a
    list of at least one block, at most a sixteenth of its two words
    per pair. Copying increments never populate the list, so these
    paths cost them nothing. *)

val clear_free_list : t -> unit
val push_free : t -> addr:Addr.t -> words:int -> unit

val free_words : t -> int
(** Total words on the free list (an upper bound on what
    {!fit_or_null} can place). *)

val max_hole : t -> int
(** The largest hole (0 when the list is empty): the index's root. *)

val rebuilt_index : t -> int array
(** What [hole_index] must hold, rebuilt from [free_list]: at the
    index's current size, or at the smallest size that covers the list
    when the index is too small for it. {!Verify} compares the two. *)

val fits_free : t -> size:int -> bool
(** Whether some hole admits a [size]-word object under the remainder
    rule — the schedule's must-this-allocation-trigger test. O(1) from
    {!max_hole}, except when the largest hole is too small to split but
    larger than [size], where the index finds an exact-size hole if
    there is one. *)

val fit_or_null : t -> Memory.t -> size:int -> Addr.t
(** Take the first fitting hole in list order: returns zeroed memory
    like a fresh bump, writes the remainder filler's header when
    splitting, or [Addr.null] when no hole fits (at once when every
    hole is smaller than [size]). *)

val alloc_or_null : t -> Memory.t -> size:int -> Addr.t
(** {!bump_or_null}, falling back to {!fit_or_null} when the bump
    fails and the increment is not sealed. *)

val scan_pos : t -> pos
(** Position at the current frontier: subsequent copies into this
    increment will be scanned from here. *)

val start_pos : t -> pos
(** Position at the first object (integrity walks, oracle). *)

val scan_pending : t -> Memory.t -> pos -> bool
(** Whether objects remain between [pos] and the frontier (normalises
    [pos] across frame seams as a side effect). *)

val scan_step : t -> Memory.t -> pos -> Addr.t
(** Object address at [pos], advancing [pos] past it.
    @raise Invalid_argument if nothing is pending. *)

val scan_next : t -> Memory.t -> pos -> Addr.t
(** {!scan_pending} and {!scan_step} in one call: the next object
    address (advancing [pos] past it), or [Addr.null] when the scan has
    reached the frontier. Normalises [pos] once per object, where the
    pending/step pair normalises three times. *)

val iter_objects : t -> Memory.t -> (Addr.t -> unit) -> unit
(** Walk every object currently in the increment from the beginning.
    Unsafe during collection of this increment (headers may be
    forwarding pointers). *)

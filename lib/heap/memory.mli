(** The simulated physical memory: a set of frames.

    A frame is an aligned, contiguous, power-of-two-sized region of the
    virtual address space (paper S3.3.1). Memory hands out frames,
    reclaims them, and services word-granularity loads and stores.

    All frames share one flat backing store (a [Bigarray.Array1] of
    ints) in which frame [f] occupies words
    [f lsl frame_log .. (f+1) lsl frame_log - 1], so an address is
    itself the backing index: a load is a single unchecked read plus a
    liveness-bitmap test. Freed frame *indices* are recycled through a
    free list, mimicking a virtual memory manager that maps and unmaps
    page runs. The backing is allocated once, in {!create}, for
    indices [0 .. max_frames], and never grows or moves, so other
    domains may read it without synchronisation.

    The *heap budget* (how many frames a collector configuration may
    hold at once) is enforced by the GC layer, not here: this module is
    the machine, not the policy. *)

type t

val create : frame_log_words:int -> max_frames:int -> t
(** [create ~frame_log_words ~max_frames]: frames hold
    [2^frame_log_words] words each, and every frame index lies in
    [1 .. max_frames] (frame 0 is reserved), so at most [max_frames]
    may be live at once.
    @raise Invalid_argument if [frame_log_words < 4] or
    [max_frames < 1]. *)

val frame_log : t -> int
val frame_words : t -> int
val frame_bytes : t -> int
val max_frames : t -> int

val live_frames : t -> int
(** Number of frames currently allocated. *)

val fresh_frames : t -> int
(** Next never-used frame index: an upper bound (exclusive) on every
    index ever handed out. Grows only when the free list cannot satisfy
    a request, so it measures virtual-space consumption. *)

exception Out_of_frames
(** Raised when a request cannot be placed in [1 .. max_frames]:
    {!alloc_frame} when [max_frames] are already live,
    {!alloc_frames_contiguous} also when no run of that length exists.
    The GC layer turns it into its own out-of-memory error. *)

val alloc_frame : t -> int
(** Allocate a frame; its words are zeroed. Returns the frame index
    (>= 1). *)

val alloc_frames_contiguous : t -> int -> int list
(** Allocate [n] frames with consecutive indices — hence contiguous
    addresses — for objects larger than one frame (large object
    space). Consults the free list first, exactly like {!alloc_frame}:
    a run of [n] consecutive recycled indices is reused when one
    exists (the lowest-addressed), and only otherwise is fresh virtual
    space consumed.
    @raise Out_of_frames if fewer than [n] frames remain in the
    budget, or no run of [n] fits the range. @raise Invalid_argument if
    [n < 1]. *)

val free_frame : t -> int -> unit
(** Return a frame to the free list. @raise Invalid_argument if the
    frame is not live. *)

val is_live : t -> int -> bool
(** Whether the frame index is currently allocated. *)

val checks_enabled : bool
(** Whether word accesses verify the liveness bitmap (the default).
    [BELTWAY_MEMCHECK=0] in the environment disables every check below
    — each access becomes a single unchecked load/store, and the
    use-after-free / wild-pointer / frame-boundary failure modes become
    undefined behaviour. *)

val get : t -> Addr.t -> int
(** Load the word at an address. @raise Invalid_argument on a null
    address or a dead frame (catching use-after-free / wild pointers in
    tests). *)

val set : t -> Addr.t -> int -> unit
(** Store a word. Same failure modes as {!get}. *)

val unsafe_get : t -> Addr.t -> int
(** {!get} without the liveness check, regardless of
    [checks_enabled]. The caller must know the frame is live. *)

val unsafe_set : t -> Addr.t -> int -> unit
(** {!set} without the liveness check. *)

val unsafe_blit : t -> src:Addr.t -> dst:Addr.t -> len:int -> unit
(** {!blit} without the range checks ([len] must be non-negative and
    both ranges within live frames). *)

val blit : t -> src:Addr.t -> dst:Addr.t -> len:int -> unit
(** Block move of [len] words, as one backing-store blit rather than
    per-word {!get}/{!set} round trips. Each of the source and
    destination ranges must lie within a single live frame.
    @raise Invalid_argument if a range is dead, crosses a frame
    boundary, or [len < 0]. *)

val fill : t -> dst:Addr.t -> len:int -> int -> unit
(** Block store of [len] copies of a word. Same constraints as
    {!blit}. *)

val ensure_cas_locks : t -> unit
(** Allocate the spinlock stripes {!cas_word} needs, once per heap.
    The parallel collector calls this before fanning out; sequential
    heaps never allocate them. Not safe to call while other domains
    may be in {!cas_word}. *)

val cas_word : t -> Addr.t -> expect:int -> desired:int -> int
(** Atomic compare-and-set of the word at an address, emulated with
    address-striped spinlocks: stores [desired] iff the word equals
    [expect], and returns the previous value either way (equal to
    [expect] iff the store happened). Safe from any domain; plain
    loads racing with it may return either value.
    @raise Invalid_argument before {!ensure_cas_locks} has run. *)

val frame_base : t -> int -> Addr.t
(** Address of word 0 of a frame. *)

val addr_frame : t -> Addr.t -> int
(** Frame index of an address (shift). *)

val addr_offset : t -> Addr.t -> int
(** Word offset of an address within its frame (mask) — the slot key
    for per-frame side tables. *)

(** {2 Side mark bitmap}

    One bit per heap *word*, keyed by address — the per-object
    reachability record used by the non-moving reclamation strategies
    (mark-sweep, mark-compact). Kept outside the heap so mark state can
    never collide with header encodings (forwarding pointers are odd
    header words). Lazily materialised: a heap that never marks never
    allocates it. *)

val ensure_marks : t -> unit
(** Materialise the mark bitmap, once, over the whole fixed backing
    (every frame in [0 .. max_frames]); later calls do nothing. Must
    be called before {!marked} / {!set_mark}. *)

val marked : t -> Addr.t -> bool
(** Whether the word at an address carries a mark. Undefined before
    {!ensure_marks}. *)

val set_mark : t -> Addr.t -> unit
(** Set the mark bit for an address. Undefined before
    {!ensure_marks}. *)

val clear_marks_frame : t -> int -> unit
(** Clear every mark bit in one frame's address range (strategies clear
    exactly the plan's frames at mark-phase start). *)

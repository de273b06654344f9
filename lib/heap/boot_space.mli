(** The boot/immortal space.

    Jikes RVM pre-compiles the VM into a boot image whose objects (type
    information blocks among them) are never moved or reclaimed. We
    model it as a bump-allocated region of frames that the collector
    treats as older-than-everything: its frames receive the maximal
    collection stamp, so references *into* the boot space are never
    remembered and boot objects are never copied.

    Boot frames are allocated from the shared {!Memory} but are outside
    the collector's heap budget, matching the paper's accounting (heap
    sizes exclude the boot image). *)

type t

val max_frames : int
(** Frames a boot space may hold (8): its allowance in every heap's
    fixed address range. Every workload measured uses one. *)

val create : Memory.t -> t

val alloc : t -> tib:Value.t -> nfields:int -> Addr.t
(** Bump-allocate an immortal object; extends the space by a frame when
    full. Fields start null.
    @raise Memory.Out_of_frames when the space would need more than
    {!max_frames} frames. *)

val frames : t -> int list
(** Frames owned by the boot space (for stamp assignment). *)

val mem_frames : t -> int
(** Number of frames consumed. *)

val contains : t -> Addr.t -> bool
(** Whether an address falls in a boot frame. *)

val words_used : t -> int

(* The Beltlang bytecode VM: a tight dispatch loop over the flat code
   stream, with the collector's fast paths inlined into the hot
   opcode handlers.

   Equivalence contract: this engine must be indistinguishable from
   [Interp] on the simulated heap — same program output, same
   [Gc_stats], same sanitizer-visible event stream. That holds
   because (a) the operand stack IS the Roots shadow stack and the
   compiler pushes/releases exactly where the interpreter does, so
   every collection sees the same live set; (b) the inlined
   allocation fast path replicates [Gc.alloc]'s nursery-hit case
   word for word (the miss case falls back to [Gc.alloc] itself, and
   [Increment.bump_or_null] is side-effect-free on failure); (c) the
   inlined write barrier replicates [Write_barrier.record], counters,
   hooks and all. The differential suite (test_bytecode) enforces all
   three across programs x configurations.

   What makes it fast, relative to the AST walker:
   - one int-array fetch + one jump-table match per step (no
     closures, no list traversal, no per-step OCaml allocation);
   - locals resolved to static frame offsets at compile time
     (the interpreter re-walks the parent chain per access);
   - type checks as one cached-TIB word compare (the interpreter
     goes through [Gc.type_of] plus string compares);
   - allocation and barrier fast paths inlined at the opcode site. *)

module Vec = Beltway_util.Vec
module State = Beltway.State

exception Runtime_error = Interp.Runtime_error

let err fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* A compilation unit: one [run]'s code and tables. Closures outlive
   the run that created them, so every lambda keeps a handle to its
   unit and the dispatch registers swap units on call/return. *)
type unit_ctx = {
  u_code : int array;
  u_consts : int array;
  u_strings : string array;
  u_genv : Roots.global array;
  u_base : int; (* this unit's offset into the persistent lambda table *)
  u_sites : int array;
      (* per-pc allocation-site id (code length; 0 where not an
         allocating opcode) — handlers stamp [State.alloc_site] before
         allocating so a profiler can attribute the object *)
}

type rt_lambda = {
  rl_entry : int;
  rl_params : int;
  rl_name : string;
  rl_unit : unit_ctx;
}

type t = {
  gc : Beltway.Gc.t;
  st : State.t;
  mem : Memory.t;
  frame_log : int;
  pair_ty : Type_registry.id;
  vector_ty : Type_registry.id;
  closure_ty : Type_registry.id;
  env_ty : Type_registry.id;
  (* cached TIB words: immortal boot-space refs, so a type check is
     one load and one compare *)
  pair_tib : Value.t;
  vector_tib : Value.t;
  closure_tib : Value.t;
  env_tib : Value.t;
  lambdas : rt_lambda Vec.t; (* persistent across runs, as in Interp *)
  globals : (string, Roots.global) Hashtbl.t;
  buf : Buffer.t;
  mutable steps : int; (* dispatched instructions, cumulative *)
}

let create gc =
  let st = Beltway.Gc.state gc in
  let pair_ty = Beltway.Gc.register_type gc ~name:"beltlang.pair" in
  let vector_ty = Beltway.Gc.register_type gc ~name:"beltlang.vector" in
  let closure_ty = Beltway.Gc.register_type gc ~name:"beltlang.closure" in
  let env_ty = Beltway.Gc.register_type gc ~name:"beltlang.env" in
  let dummy_unit =
    {
      u_code = [||];
      u_consts = [||];
      u_strings = [||];
      u_genv = [||];
      u_base = 0;
      u_sites = [||];
    }
  in
  {
    gc;
    st;
    mem = st.State.mem;
    frame_log = Memory.frame_log st.State.mem;
    pair_ty;
    vector_ty;
    closure_ty;
    env_ty;
    pair_tib = Beltway.Gc.tib_value gc pair_ty;
    vector_tib = Beltway.Gc.tib_value gc vector_ty;
    closure_tib = Beltway.Gc.tib_value gc closure_ty;
    env_tib = Beltway.Gc.tib_value gc env_ty;
    lambdas =
      Vec.create
        ~dummy:{ rl_entry = 0; rl_params = 0; rl_name = ""; rl_unit = dummy_unit }
        ();
    globals = Hashtbl.create 32;
    buf = Buffer.create 256;
    steps = 0;
  }

let gc t = t.gc
let output t = Buffer.contents t.buf
let clear_output t = Buffer.clear t.buf
let instructions t = t.steps

let global t name =
  Option.map
    (Roots.get_global (Beltway.Gc.roots t.gc))
    (Hashtbl.find_opt t.globals name)

(* Truthiness as in the interpreter: null (0) and the tagged zero
   immediate (1) are false. *)
let[@inline] truthy v = v <> 0 && v <> 1

let vtrue = Value.of_int 1
let vfalse = Value.of_int 0
let[@inline] of_bool b = if b then vtrue else vfalse

(* ---- inlined GC fast paths -------------------------------------- *)

(* Allocation: the nursery bump hit completes inline (in Gc, where the
   state's internals live); a miss takes the full [Gc.alloc] slow
   path, which re-runs the policy's trigger cascade. *)
let[@inline] alloc t ~ty ~tib ~nfields =
  let addr = Beltway.Gc.alloc_small_fast t.gc ~tib ~nfields in
  if addr <> Addr.null then addr else Beltway.Gc.alloc t.gc ~ty ~nfields

(* The write barrier, replicated from [Write_barrier.record] so the
   filter/stamp-compare fast path decides inline at the opcode site;
   counters and hooks fire exactly as the generic path's. The
   differential suite pins this equivalence across disciplines. *)
(* Out-of-line slow tail (remset insert + hooks): keeps the inline
   part of the barrier — the filter and stamp compare — free of
   closure definitions, which the non-flambda inliner refuses. *)
let barrier_slow st stats ~s ~tg ~slot =
  stats.Beltway.Gc_stats.barrier_slow <- stats.Beltway.Gc_stats.barrier_slow + 1;
  Beltway.Remset.insert st.State.remsets ~src_frame:s ~tgt_frame:tg ~slot;
  match st.State.hooks with
  | [] -> ()
  | hs ->
    let entries = Beltway.Remset.total_entries st.State.remsets in
    List.iter (fun h -> h.State.on_barrier_slow ~entries) hs

let[@inline] record_barrier t ~slot ~target =
  let st = t.st in
  let stats = st.State.stats in
  stats.Beltway.Gc_stats.barrier_ops <- stats.Beltway.Gc_stats.barrier_ops + 1;
  let s = slot lsr t.frame_log in
  let tg = target lsr t.frame_log in
  match st.State.policy.State.barrier with
  | State.Barrier_cards ->
    Beltway.Card_table.mark st.State.cards ~frame:s;
    stats.Beltway.Gc_stats.barrier_fast <- stats.Beltway.Gc_stats.barrier_fast + 1
  | State.Barrier_remsets { nursery_filter } ->
    let in_nursery =
      nursery_filter
      &&
      match Beltway.Belt.back st.State.belts.(0) with
      | None -> false
      | Some inc ->
        Beltway.Frame_table.incr_of st.State.ftab s = inc.Beltway.Increment.id
    in
    if in_nursery then
      stats.Beltway.Gc_stats.barrier_filtered <- stats.Beltway.Gc_stats.barrier_filtered + 1
    else if
      s <> tg
      && Beltway.Frame_table.stamp st.State.ftab tg
         < Beltway.Frame_table.stamp st.State.ftab s
    then barrier_slow st stats ~s ~tg ~slot
    else stats.Beltway.Gc_stats.barrier_fast <- stats.Beltway.Gc_stats.barrier_fast + 1

(* [Gc.write], with the barrier decision inlined above. Field access
   skips [Object_model]'s header re-read and [Memory]'s liveness
   checks: every address the VM dereferences came from a root slot
   (kept current by the collector) and passed a TIB type check, and
   every field index is either fixed by the object's type (pairs,
   closures) or bounds-checked against the header by the opcode
   handler (vectors, environments) — so the checked path could only
   re-verify what is already known. *)
let write_hooks hs obj i v =
  List.iter (fun (h : State.hooks) -> h.State.on_write ~obj ~field:i ~value:v) hs

let[@inline] write t obj i v =
  Memory.unsafe_set t.mem (obj + Object_model.header_words + i) v;
  if Value.is_ref v then
    record_barrier t ~slot:(Object_model.field_addr obj i)
      ~target:(Value.to_addr v);
  match t.st.State.hooks with [] -> () | hs -> write_hooks hs obj i v

let[@inline] read t obj i =
  Memory.unsafe_get t.mem (obj + Object_model.header_words + i)

(* Field count, from the object header (never a forwarding pointer
   between instructions). *)
let[@inline] obj_nfields t obj = Memory.unsafe_get t.mem obj asr 1

(* ---- type checks (one TIB-word compare) -------------------------- *)

let[@inline] is_of t tib v =
  Value.is_ref v && Memory.unsafe_get t.mem (Value.to_addr v + 1) = tib

let[@inline] as_pair t what v =
  if is_of t t.pair_tib v then Value.to_addr v
  else err "%s: expected a pair" what

let[@inline] as_vector t what v =
  if is_of t t.vector_tib v then Value.to_addr v
  else err "%s: expected a vector" what

let[@inline] as_int what v =
  if v land 1 = 1 then v asr 1 else err "%s: expected an integer" what

(* Fused-branch compare: low 3 bits of [kc] select the comparison,
   [Bytecode.negate_bit] flips it (an absorbed [not]). *)
let[@inline] cmp_holds kc a b =
  let taken =
    match kc land 7 with
    | 0 -> a < b
    | 1 -> a <= b
    | 2 -> a > b
    | 3 -> a >= b
    | _ -> a = b
  in
  taken <> (kc land Bytecode.negate_bit <> 0)

(* Fused arith against an immediate: type-checks the non-literal
   operand with the unfused opcode's error name. Div/mod are only
   emitted with a non-zero literal divisor. *)
let[@inline] arith_apply kind v0 k =
  let v = as_int (Array.unsafe_get Bytecode.arith_name kind) v0 in
  match kind with
  | 0 -> v + k
  | 1 -> v - k
  | 2 -> v * k
  | 3 -> v / k
  | _ -> v mod k

(* ---- rendering (the interpreter's display format) ---------------- *)

let render t v =
  let b = Buffer.create 32 in
  let rec go v =
    if Value.is_null v then Buffer.add_string b "()"
    else if Value.is_int v then
      Buffer.add_string b (string_of_int (Value.to_int v))
    else begin
      let addr = Value.to_addr v in
      let tib = Object_model.tib t.mem addr in
      if tib = t.pair_tib then begin
        Buffer.add_char b '(';
        let rec elems v first =
          if Value.is_null v then ()
          else if is_of t t.pair_tib v then begin
            if not first then Buffer.add_char b ' ';
            let a = Value.to_addr v in
            go (read t a 0);
            elems (read t a 1) false
          end
          else begin
            Buffer.add_string b " . ";
            go v
          end
        in
        elems v true;
        Buffer.add_char b ')'
      end
      else if tib = t.vector_tib then begin
        Buffer.add_string b "#(";
        let n = Object_model.nfields t.mem addr in
        for i = 0 to n - 1 do
          if i > 0 then Buffer.add_char b ' ';
          go (read t addr i)
        done;
        Buffer.add_char b ')'
      end
      else if tib = t.closure_tib then Buffer.add_string b "#<closure>"
      else Buffer.add_string b "#<object>"
    end
  in
  go v;
  Buffer.contents b

(* ---- dispatch ---------------------------------------------------- *)

(* Call frames: parallel stacks of the saved dispatch registers.
   Monomorphic int arrays, grown together out of line — a polymorphic
   vector would pay a [caml_modify] per saved register per call. *)
type frames = {
  mutable f_pc : int array;
  mutable f_fp : int array;
  mutable f_release : int array; (* shadow-stack watermark to restore on return *)
  mutable f_unit : unit_ctx array;
  mutable f_len : int;
}

let grow_frames fr dummy =
  let cap = Array.length fr.f_pc in
  let grow_int a = (let b = Array.make (2 * cap) 0 in Array.blit a 0 b 0 cap; b) in
  fr.f_pc <- grow_int fr.f_pc;
  fr.f_fp <- grow_int fr.f_fp;
  fr.f_release <- grow_int fr.f_release;
  let units = Array.make (2 * cap) dummy in
  Array.blit fr.f_unit 0 units 0 cap;
  fr.f_unit <- units

let exec t (unit0 : unit_ctx) ~fp:fp0 =
  let r = Beltway.Gc.roots t.gc in
  let frames =
    {
      f_pc = Array.make 64 0;
      f_fp = Array.make 64 0;
      f_release = Array.make 64 0;
      f_unit = Array.make 64 unit0;
      f_len = 0;
    }
  in
  let steps = ref 0 in
  (* Resolve an environment frame: [off] is fp-relative for frames in
     this call's stack segment; [hops] parent-chain loads reach frames
     captured from enclosing functions. Tail-recursive — no [ref]
     cell, this runs on every local-variable access. *)
  let rec hop v n =
    if not (Value.is_ref v) then err "internal: environment chain broken"
    else if n = 0 then Value.to_addr v
    else hop (read t (Value.to_addr v) 0) (n - 1)
  in
  let[@inline] env_frame fp off hops = hop (Roots.stack_get r (fp + off)) hops in
  (* The dispatch registers — current unit, its code array, pc, fp —
     are parameters of a tail-recursive loop, so every instruction
     boundary is a register move: no mutable cell, and in particular
     no [caml_modify] when call/return swaps the unit. *)
  let rec loop (u : unit_ctx) code pc fp =
    let insn = Array.unsafe_get code pc in
    let pc = pc + 1 in
    incr steps;
    (* Dense dispatch: the opcode constants of [Bytecode], as
       literals so the match compiles to a jump table. *)
    match insn land 0xff with
    | 0 (* halt *) -> ()
    | 1 (* push-int *) ->
      Roots.push r (insn asr 8);
      loop u code pc fp
    | 2 (* push-const *) ->
      Roots.push r (Array.unsafe_get u.u_consts (Bytecode.a insn));
      loop u code pc fp
    | 3 (* push-nil *) ->
      Roots.push r Value.null;
      loop u code pc fp
    | 4 (* pop *) ->
      ignore (Roots.pop r);
      loop u code pc fp
    | 5 (* dup *) ->
      Roots.push r (Roots.peek r 0);
      loop u code pc fp
    | 6 (* local *) ->
      let frame = env_frame fp (Bytecode.a insn) (Bytecode.c insn) in
      Roots.push r (read t frame (Bytecode.b insn + 1));
      loop u code pc fp
    | 7 (* set-local *) ->
      let v = Roots.pop r in
      (* resolve after the value: its evaluation may have moved the
         frame (the stack slot is kept current by the collector) *)
      let frame = env_frame fp (Bytecode.a insn) (Bytecode.c insn) in
      write t frame (Bytecode.b insn + 1) v;
      Roots.push r Value.null;
      loop u code pc fp
    | 8 (* global *) ->
      Roots.push r (Roots.get_global r (Array.unsafe_get u.u_genv (Bytecode.a insn)));
      loop u code pc fp
    | 9 (* set-global *) ->
      let v = Roots.pop r in
      Roots.set_global r (Array.unsafe_get u.u_genv (Bytecode.a insn)) v;
      Roots.push r Value.null;
      loop u code pc fp
    | 10 (* store-global *) ->
      let v = Roots.pop r in
      Roots.set_global r (Array.unsafe_get u.u_genv (Bytecode.a insn)) v;
      loop u code pc fp
    | 11 (* jump *) -> loop u code (Bytecode.a insn) fp
    | 12 (* jump-if-false *) ->
      if not (truthy (Roots.pop r)) then loop u code (Bytecode.a insn) fp
      else loop u code pc fp
    | 13 (* jump-if-true *) ->
      if truthy (Roots.pop r) then loop u code (Bytecode.a insn) fp
      else loop u code pc fp
    | 14 (* enter-env *) ->
      let k = Bytecode.b insn in
      t.st.State.alloc_site <- Array.unsafe_get u.u_sites (pc - 1);
      let frame = alloc t ~ty:t.env_ty ~tib:t.env_tib ~nfields:(k + 1) in
      (* parent read after the allocation: the stack slot tracks
         any move the collection performed *)
      write t frame 0 (Roots.stack_get r (fp + Bytecode.a insn));
      for i = 0 to k - 1 do
        write t frame (i + 1) (Roots.peek r (k - 1 - i))
      done;
      Roots.push r (Value.of_addr frame);
      loop u code pc fp
    | 15 (* exit-env *) ->
      let result = Roots.pop r in
      Roots.release r (Roots.depth r - (Bytecode.a insn + 1));
      Roots.push r result;
      loop u code pc fp
    | 16 (* closure *) ->
      t.st.State.alloc_site <- Array.unsafe_get u.u_sites (pc - 1);
      let addr = alloc t ~ty:t.closure_ty ~tib:t.closure_tib ~nfields:2 in
      write t addr 0 (Roots.stack_get r (fp + Bytecode.a insn));
      write t addr 1 (Value.of_int (u.u_base + Bytecode.b insn));
      Roots.push r (Value.of_addr addr);
      loop u code pc fp
    | 17 (* call *) ->
      let nargs = Bytecode.a insn in
      let fv = Roots.peek r nargs in
      if not (is_of t t.closure_tib fv) then err "call: expected a closure";
      let lam_id = as_int "call" (read t (Value.to_addr fv) 1) in
      let lam = Vec.get t.lambdas lam_id in
      if lam.rl_params <> nargs then
        err "%s expects %d arguments, got %d" lam.rl_name lam.rl_params nargs;
      t.st.State.alloc_site <- Array.unsafe_get u.u_sites (pc - 1);
      let frame = alloc t ~ty:t.env_ty ~tib:t.env_tib ~nfields:(nargs + 1) in
      (* re-resolve the closure: the allocation may have moved it *)
      let clos = Value.to_addr (Roots.peek r nargs) in
      write t frame 0 (read t clos 0);
      for i = 0 to nargs - 1 do
        write t frame (i + 1) (Roots.peek r (nargs - 1 - i))
      done;
      Roots.push r (Value.of_addr frame);
      let fp_new = Roots.depth r - 1 in
      let n = frames.f_len in
      if n = Array.length frames.f_pc then grow_frames frames unit0;
      Array.unsafe_set frames.f_pc n pc;
      Array.unsafe_set frames.f_fp n fp;
      Array.unsafe_set frames.f_release n (fp_new - nargs - 1);
      Array.unsafe_set frames.f_unit n u;
      frames.f_len <- n + 1;
      let u = lam.rl_unit in
      loop u u.u_code lam.rl_entry fp_new
    | 18 (* return *) ->
      let result = Roots.pop r in
      let n = frames.f_len - 1 in
      frames.f_len <- n;
      Roots.release r (Array.unsafe_get frames.f_release n);
      Roots.push r result;
      let u = Array.unsafe_get frames.f_unit n in
      loop u u.u_code
        (Array.unsafe_get frames.f_pc n)
        (Array.unsafe_get frames.f_fp n)
    | 19 (* qpair: [tail head] -> pair *) ->
      t.st.State.alloc_site <- Array.unsafe_get u.u_sites (pc - 1);
      let pair = alloc t ~ty:t.pair_ty ~tib:t.pair_tib ~nfields:2 in
      write t pair 0 (Roots.peek r 0);
      write t pair 1 (Roots.peek r 1);
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_addr pair);
      loop u code pc fp
    | 20 (* cons *) ->
      t.st.State.alloc_site <- Array.unsafe_get u.u_sites (pc - 1);
      let pair = alloc t ~ty:t.pair_ty ~tib:t.pair_tib ~nfields:2 in
      write t pair 0 (Roots.peek r 1);
      write t pair 1 (Roots.peek r 0);
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_addr pair);
      loop u code pc fp
    | 21 (* car *) ->
      let v = read t (as_pair t "car" (Roots.peek r 0)) 0 in
      ignore (Roots.pop r);
      Roots.push r v;
      loop u code pc fp
    | 22 (* cdr *) ->
      let v = read t (as_pair t "cdr" (Roots.peek r 0)) 1 in
      ignore (Roots.pop r);
      Roots.push r v;
      loop u code pc fp
    | 23 (* set-car! *) ->
      write t (as_pair t "set-car!" (Roots.peek r 1)) 0 (Roots.peek r 0);
      Roots.release r (Roots.depth r - 2);
      Roots.push r Value.null;
      loop u code pc fp
    | 24 (* set-cdr! *) ->
      write t (as_pair t "set-cdr!" (Roots.peek r 1)) 1 (Roots.peek r 0);
      Roots.release r (Roots.depth r - 2);
      Roots.push r Value.null;
      loop u code pc fp
    | 25 (* null? *) ->
      let v = of_bool (Value.is_null (Roots.pop r)) in
      Roots.push r v;
      loop u code pc fp
    | 26 (* pair? *) ->
      let v = of_bool (is_of t t.pair_tib (Roots.pop r)) in
      Roots.push r v;
      loop u code pc fp
    | 27 (* not *) ->
      let v = of_bool (not (truthy (Roots.pop r))) in
      Roots.push r v;
      loop u code pc fp
    | 28 (* eq? *) ->
      let b = Roots.pop r in
      let a = Roots.pop r in
      Roots.push r (of_bool (a = b));
      loop u code pc fp
    | 29 (* add *) ->
      let b = as_int "+" (Roots.peek r 0) in
      let a = as_int "+" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_int (a + b));
      loop u code pc fp
    | 30 (* sub *) ->
      let b = as_int "-" (Roots.peek r 0) in
      let a = as_int "-" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_int (a - b));
      loop u code pc fp
    | 31 (* mul *) ->
      let b = as_int "*" (Roots.peek r 0) in
      let a = as_int "*" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_int (a * b));
      loop u code pc fp
    | 32 (* div *) ->
      if as_int "/" (Roots.peek r 0) = 0 then err "division by zero";
      let b = as_int "/" (Roots.peek r 0) in
      let a = as_int "/" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_int (a / b));
      loop u code pc fp
    | 33 (* mod *) ->
      if as_int "mod" (Roots.peek r 0) = 0 then err "mod by zero";
      let b = as_int "mod" (Roots.peek r 0) in
      let a = as_int "mod" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_int (a mod b));
      loop u code pc fp
    | 34 (* lt *) ->
      let b = as_int "<" (Roots.peek r 0) in
      let a = as_int "<" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (of_bool (a < b));
      loop u code pc fp
    | 35 (* le *) ->
      let b = as_int "<=" (Roots.peek r 0) in
      let a = as_int "<=" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (of_bool (a <= b));
      loop u code pc fp
    | 36 (* gt *) ->
      let b = as_int ">" (Roots.peek r 0) in
      let a = as_int ">" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (of_bool (a > b));
      loop u code pc fp
    | 37 (* ge *) ->
      let b = as_int ">=" (Roots.peek r 0) in
      let a = as_int ">=" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (of_bool (a >= b));
      loop u code pc fp
    | 38 (* eq-num *) ->
      let b = as_int "=" (Roots.peek r 0) in
      let a = as_int "=" (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      Roots.push r (of_bool (a = b));
      loop u code pc fp
    | 39 (* make-vector *) ->
      let len = as_int "make-vector" (Roots.peek r 1) in
      if len < 0 then err "make-vector: negative length";
      t.st.State.alloc_site <- Array.unsafe_get u.u_sites (pc - 1);
      let v = alloc t ~ty:t.vector_ty ~tib:t.vector_tib ~nfields:len in
      let fill = Roots.peek r 0 in
      if not (Value.is_null fill) then
        for i = 0 to len - 1 do
          write t v i fill
        done;
      Roots.release r (Roots.depth r - 2);
      Roots.push r (Value.of_addr v);
      loop u code pc fp
    | 40 (* vector-ref *) ->
      let v = as_vector t "vector-ref" (Roots.peek r 1) in
      let i = as_int "vector-ref" (Roots.peek r 0) in
      if i < 0 || i >= obj_nfields t v then
        err "vector-ref: index %d out of bounds" i;
      let x = read t v i in
      Roots.release r (Roots.depth r - 2);
      Roots.push r x;
      loop u code pc fp
    | 41 (* vector-set! *) ->
      let v = as_vector t "vector-set!" (Roots.peek r 2) in
      let i = as_int "vector-set!" (Roots.peek r 1) in
      if i < 0 || i >= obj_nfields t v then
        err "vector-set!: index %d out of bounds" i;
      write t v i (Roots.peek r 0);
      Roots.release r (Roots.depth r - 3);
      Roots.push r Value.null;
      loop u code pc fp
    | 42 (* vector-length *) ->
      let v = as_vector t "vector-length" (Roots.peek r 0) in
      let n = obj_nfields t v in
      ignore (Roots.pop r);
      Roots.push r (Value.of_int n);
      loop u code pc fp
    | 43 (* print *) ->
      Buffer.add_string t.buf (render t (Roots.peek r 0));
      Buffer.add_char t.buf '\n';
      ignore (Roots.pop r);
      Roots.push r Value.null;
      loop u code pc fp
    | 44 (* fail *) ->
      raise (Runtime_error (Array.unsafe_get u.u_strings (Bytecode.a insn)))
    | 45 (* jcmp-false: fused compare + branch (A = target, C = kind) *) ->
      let kc = Bytecode.c insn in
      let name = Array.unsafe_get Bytecode.cmp_name (kc land 7) in
      (* Operand order and type-check order match the unfused compare
         opcodes exactly, down to the error strings. *)
      let b = as_int name (Roots.peek r 0) in
      let a = as_int name (Roots.peek r 1) in
      Roots.release r (Roots.depth r - 2);
      if cmp_holds kc a b then loop u code pc fp
      else loop u code (Bytecode.a insn) fp
    | 46 (* arith-imm: top of stack op B, rewritten in place *) ->
      let v = arith_apply (Bytecode.c insn land 7) (Roots.peek r 0) (Bytecode.b insn) in
      Roots.set_peek r 0 (Value.of_int v);
      loop u code pc fp
    | 47 (* jcmp-ll: compare two locals, branch — no stack traffic *) ->
      let w1 = Array.unsafe_get code pc in
      let w2 = Array.unsafe_get code (pc + 1) in
      let pc = pc + 2 in
      (* Resolution and type-check order mirror the unfused
         local-local-compare sequence: both frames resolved left to
         right, then checks right operand first. *)
      let f1 = env_frame fp (Bytecode.a w1) (Bytecode.c w1) in
      let v1 = read t f1 (Bytecode.b w1 + 1) in
      let f2 = env_frame fp (Bytecode.a w2) (Bytecode.c w2) in
      let v2 = read t f2 (Bytecode.b w2 + 1) in
      let kc = Bytecode.c insn in
      let name = Array.unsafe_get Bytecode.cmp_name (kc land 7) in
      let b = as_int name v2 in
      let a = as_int name v1 in
      if cmp_holds kc a b then loop u code pc fp
      else loop u code (Bytecode.a insn) fp
    | 48 (* jtest-l: null?/pair? on a local, branch when false *) ->
      let w1 = Array.unsafe_get code pc in
      let pc = pc + 1 in
      let f = env_frame fp (Bytecode.a w1) (Bytecode.c w1) in
      let v = read t f (Bytecode.b w1 + 1) in
      let kc = Bytecode.c insn in
      let holds =
        if kc land 7 = 0 then Value.is_null v else is_of t t.pair_tib v
      in
      if holds <> (kc land Bytecode.negate_bit <> 0) then loop u code pc fp
      else loop u code (Bytecode.a insn) fp
    | 49 (* upd-local: (set! x (op y k)) in one dispatch *) ->
      let w1 = Array.unsafe_get code pc in
      let w2 = Array.unsafe_get code (pc + 1) in
      let pc = pc + 2 in
      let fs = env_frame fp (Bytecode.a w1) (Bytecode.c w1) in
      let v0 = read t fs (Bytecode.b w1 + 1) in
      let v = arith_apply (Bytecode.c insn land 7) v0 (Bytecode.b insn) in
      (* Destination resolved after the source read, as in the
         unfused encoding. *)
      let fd = env_frame fp (Bytecode.a w2) (Bytecode.c w2) in
      write t fd (Bytecode.b w2 + 1) (Value.of_int v);
      loop u code pc fp
    | 50 (* local-arith: push (op y k) *) ->
      let w1 = Array.unsafe_get code pc in
      let pc = pc + 1 in
      let f = env_frame fp (Bytecode.a w1) (Bytecode.c w1) in
      let v0 = read t f (Bytecode.b w1 + 1) in
      let v = arith_apply (Bytecode.c insn land 7) v0 (Bytecode.b insn) in
      Roots.push r (Value.of_int v);
      loop u code pc fp
    | 51 (* local2: push two locals *) ->
      let w1 = Array.unsafe_get code pc in
      let pc = pc + 1 in
      let f1 = env_frame fp (Bytecode.a insn) (Bytecode.c insn) in
      Roots.push r (read t f1 (Bytecode.b insn + 1));
      let f2 = env_frame fp (Bytecode.a w1) (Bytecode.c w1) in
      Roots.push r (read t f2 (Bytecode.b w1 + 1));
      loop u code pc fp
    | 52 (* local-car *) ->
      let f = env_frame fp (Bytecode.a insn) (Bytecode.c insn) in
      let v = read t (as_pair t "car" (read t f (Bytecode.b insn + 1))) 0 in
      Roots.push r v;
      loop u code pc fp
    | 53 (* local-cdr *) ->
      let f = env_frame fp (Bytecode.a insn) (Bytecode.c insn) in
      let v = read t (as_pair t "cdr" (read t f (Bytecode.b insn + 1))) 1 in
      Roots.push r v;
      loop u code pc fp
    | 54 (* vector-set!, statement position *) ->
      let v = as_vector t "vector-set!" (Roots.peek r 2) in
      let i = as_int "vector-set!" (Roots.peek r 1) in
      if i < 0 || i >= obj_nfields t v then
        err "vector-set!: index %d out of bounds" i;
      write t v i (Roots.peek r 0);
      Roots.release r (Roots.depth r - 3);
      loop u code pc fp
    | 55 (* jcmp-li: compare a local with an immediate, branch *) ->
      let w1 = Array.unsafe_get code pc in
      let k = Array.unsafe_get code (pc + 1) in
      let pc = pc + 2 in
      let f = env_frame fp (Bytecode.a w1) (Bytecode.c w1) in
      let v = read t f (Bytecode.b w1 + 1) in
      let kc = Bytecode.c insn in
      let a = as_int (Array.unsafe_get Bytecode.cmp_name (kc land 7)) v in
      if cmp_holds kc a k then loop u code pc fp
      else loop u code (Bytecode.a insn) fp
    | 56 (* jcmp-gg: compare two globals, branch *) ->
      let w1 = Array.unsafe_get code pc in
      let pc = pc + 1 in
      let v1 = Roots.get_global r (Array.unsafe_get u.u_genv (Bytecode.a w1)) in
      let v2 = Roots.get_global r (Array.unsafe_get u.u_genv (Bytecode.b w1)) in
      let kc = Bytecode.c insn in
      let name = Array.unsafe_get Bytecode.cmp_name (kc land 7) in
      let b = as_int name v2 in
      let a = as_int name v1 in
      if cmp_holds kc a b then loop u code pc fp
      else loop u code (Bytecode.a insn) fp
    | 57 (* upd-global: (set! g (op g k)) in one dispatch *) ->
      let g = Array.unsafe_get u.u_genv (Bytecode.a insn) in
      let v = arith_apply (Bytecode.c insn land 7) (Roots.get_global r g) (Bytecode.b insn) in
      Roots.set_global r g (Value.of_int v);
      loop u code pc fp
    | 58 (* global-arith: push (op g k) *) ->
      let v0 = Roots.get_global r (Array.unsafe_get u.u_genv (Bytecode.a insn)) in
      let v = arith_apply (Bytecode.c insn land 7) v0 (Bytecode.b insn) in
      Roots.push r (Value.of_int v);
      loop u code pc fp
    | 59 (* cmp-imm: compare popped operand with immediate, push bool *) ->
      let k = Array.unsafe_get code pc in
      let pc = pc + 1 in
      let kc = Bytecode.c insn in
      let a = as_int (Array.unsafe_get Bytecode.cmp_name (kc land 7)) (Roots.pop r) in
      Roots.push r (of_bool (cmp_holds kc a k));
      loop u code pc fp
    | 60 (* jeq: eq? + branch when unequal (xor negate) *) ->
      let b = Roots.pop r in
      let a = Roots.pop r in
      if (a = b) <> (Bytecode.c insn land Bytecode.negate_bit <> 0) then
        loop u code pc fp
      else loop u code (Bytecode.a insn) fp
    | n -> err "internal: bad opcode %d" n
  in
  Fun.protect
    ~finally:(fun () -> t.steps <- t.steps + !steps)
    (fun () -> loop unit0 unit0.u_code 0 fp0)

(* ---- runs -------------------------------------------------------- *)

let run_compiled t (bc : Bytecode.program) =
  let base = Vec.length t.lambdas in
  let r = Beltway.Gc.roots t.gc in
  let genv =
    Array.map
      (fun name ->
        match Hashtbl.find_opt t.globals name with
        | Some g -> g
        | None ->
          let g = Roots.new_global r Value.null in
          Hashtbl.replace t.globals name g;
          g)
      bc.Bytecode.globals
  in
  (* Intern this unit's allocation sites so a profiler (attached now
     or later) can attribute objects to bytecode pcs. Interning is
     OCaml-side only — no simulated-heap traffic, stats unchanged. *)
  let u_sites = Array.make (Array.length bc.Bytecode.code) 0 in
  Array.iter
    (fun (pc, label) ->
      u_sites.(pc) <- Beltway.Gc.register_site t.gc ~name:label)
    (Compile.alloc_sites bc);
  let u =
    {
      u_code = bc.Bytecode.code;
      u_consts = bc.Bytecode.consts;
      u_strings = bc.Bytecode.strings;
      u_genv = genv;
      u_base = base;
      u_sites;
    }
  in
  Array.iter
    (fun (li : Bytecode.lambda_info) ->
      Vec.push t.lambdas
        {
          rl_entry = li.Bytecode.l_entry;
          rl_params = li.Bytecode.l_params;
          rl_name = li.Bytecode.l_name;
          rl_unit = u;
        })
    bc.Bytecode.lambdas;
  let m = Roots.mark r in
  (* Errors (including Out_of_memory) may abandon shadow-stack entries
     mid-run; restore the caller's watermark unconditionally. *)
  Fun.protect
    ~finally:(fun () -> Roots.release r m)
    (fun () ->
      (* Top level runs in a degenerate root frame, as in Interp. *)
      t.st.State.alloc_site <-
        Beltway.Gc.register_site t.gc ~name:"<toplevel>:frame";
      let frame = alloc t ~ty:t.env_ty ~tib:t.env_tib ~nfields:1 in
      Roots.push r (Value.of_addr frame);
      exec t u ~fp:(Roots.depth r - 1))

let run t prog = run_compiled t (Compile.compile prog)

let run_string t src =
  let initial_globals =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.globals []
  in
  run t (Ast.compile ~initial_globals (Sexp.parse_string src))

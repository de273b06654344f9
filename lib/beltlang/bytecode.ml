(* Flat bytecode for Beltlang: one instruction per word, operands
   packed inline. The compiled form trades the AST walker's pointer
   chasing for a single int-array fetch per step, so the dispatch loop
   is a fetch, a mask and one jump-table match.

   Word layout (63-bit OCaml int):

     bits 0..7    opcode
     bits 8..31   operand A (24-bit unsigned: jump target, stack
                  offset, global/const/string index, arity)
     bits 32..47  operand B (16-bit unsigned: variable slot, binding
                  count, lambda index)
     bits 48..55  operand C (8-bit unsigned: environment-chain hops)

   [Push_int] instead treats bits 8..62 as one signed payload (the
   already-tagged immediate, recovered by [asr 8]); integers outside
   that range go to the constant pool. *)

(* Opcode numbering is load-bearing: the VM dispatches on these exact
   values with literal patterns (a dense match compiles to a jump
   table). Keep the two in sync. *)
let op_halt = 0
let op_push_int = 1 (* payload = tagged immediate *)
let op_push_const = 2 (* A = constant-pool index *)
let op_push_nil = 3
let op_pop = 4
let op_dup = 5
let op_local = 6 (* A = frame offset, B = slot, C = hops *)
let op_set_local = 7 (* A = frame offset, B = slot, C = hops *)
let op_global = 8 (* A = global index *)
let op_set_global = 9 (* A = global index; pushes null *)
let op_store_global = 10 (* A = global index; pushes nothing *)
let op_jump = 11 (* A = target pc *)
let op_jump_if_false = 12 (* A = target pc; pops the condition *)
let op_jump_if_true = 13 (* A = target pc; pops the condition *)
let op_enter_env = 14 (* A = parent frame offset, B = binding count *)
let op_exit_env = 15 (* A = binding count *)
let op_closure = 16 (* A = parent frame offset, B = lambda index *)
let op_call = 17 (* A = argument count *)
let op_return = 18
let op_qpair = 19 (* cons for quoted structure: [tail head] -> pair *)
let op_cons = 20
let op_car = 21
let op_cdr = 22
let op_set_car = 23
let op_set_cdr = 24
let op_is_null = 25
let op_is_pair = 26
let op_not = 27
let op_eq_phys = 28
let op_add = 29
let op_sub = 30
let op_mul = 31
let op_div = 32
let op_mod = 33
let op_lt = 34
let op_le = 35
let op_gt = 36
let op_ge = 37
let op_eq_num = 38
let op_vec_make = 39
let op_vec_ref = 40
let op_vec_set = 41
let op_vec_len = 42
let op_print = 43
let op_fail = 44 (* A = string-pool index of the runtime error *)

(* Fused superinstructions. Each replaces a sequence that contains no
   allocation point, so fusing cannot change the operand stack at any
   allocation — GC behaviour (and stats) are identical to the unfused
   encoding by construction. An opcode is kept only while compiling
   without it costs some bundled program at least 1% more dispatches
   (DESIGN.md §3e). *)
let op_jcmp_false = 45 (* A = target pc, C = compare kind; pops both operands *)
let op_arith_imm = 46 (* B = immediate operand, C = arith kind *)

(* Multi-word superinstructions: the opcode word is followed by one or
   two operand words ([insn_len] gives the total). A local-variable
   operand word packs the usual (frame offset, slot, hops) triple in
   the A/B/C fields of an opcode-less word; an immediate operand word
   is the raw (untagged) integer. Jump patching still targets the
   opcode word's A field. *)
let op_jcmp_ll = 47 (* 3w: A = target, C = kind; w1, w2 = local triples *)
let op_jtest_l = 48 (* 2w: A = target, C = test kind; w1 = local triple *)
let op_upd_local = 49 (* 3w: B = imm, C = arith kind; w1 = src, w2 = dst triple *)
let op_local_arith = 50 (* 2w: B = imm, C = arith kind; w1 = src triple *)
let op_local2 = 51 (* 2w: first triple inline; w1 = second triple *)
let op_local_car = 52 (* 1w: local triple *)
let op_local_cdr = 53 (* 1w: local triple *)
let op_vec_set_void = 54 (* vector-set! in statement position: pushes nothing *)
let op_jcmp_li = 55 (* 3w: A = target, C = kind; w1 = local triple, w2 = imm *)
let op_jcmp_gg = 56 (* 2w: A = target, C = kind; w1 = A:global1 B:global2 *)
let op_upd_global = 57 (* 1w: A = global, B = imm, C = arith kind *)
let op_global_arith = 58 (* 1w: A = global, B = imm, C = arith kind *)
let op_cmp_imm = 59 (* 2w: C = kind; w1 = imm. Pops one, pushes the bool. *)
let op_jeq = 60 (* 1w: A = target, C bit 3 negates. Pops two (eq?). *)

let op_count = 61

(* Kind tables for the fused opcodes: index = operand C (low 3 bits;
   bit 3 negates a branch condition, absorbing a wrapping [not]). The
   strings are the same names the unfused opcodes use in runtime
   errors, so fused code fails with byte-identical messages. Div and
   mod are only ever fused with a non-zero literal divisor, so the
   unfused zero check cannot be observed missing. *)
let cmp_name = [| "<"; "<="; ">"; ">="; "=" |]
let arith_name = [| "+"; "-"; "*"; "/"; "mod" |]
let test_name = [| "null?"; "pair?" |]
let negate_bit = 8

(* ---- operand limits (the lint mirrors these; see Analysis) ------- *)

let max_a = 1 lsl 24
let max_b = 1 lsl 16
let max_c = 1 lsl 8

(* Inline [Push_int] payload: a tagged immediate in 55 signed bits. *)
let min_payload = -(1 lsl 54)
let max_payload = (1 lsl 54) - 1

let fits_payload v = v >= min_payload && v <= max_payload

(* ---- encode / decode -------------------------------------------- *)

let make ?(a = 0) ?(b = 0) ?(c = 0) op =
  op lor (a lsl 8) lor (b lsl 32) lor (c lsl 48)

let make_payload op payload = op lor (payload lsl 8)
let[@inline] op insn = insn land 0xff
let[@inline] a insn = (insn lsr 8) land 0xffffff
let[@inline] b insn = (insn lsr 32) land 0xffff
let[@inline] c insn = (insn lsr 48) land 0xff
let[@inline] payload insn = insn asr 8

(* Rewrite operand A in place (jump patching). *)
let with_a insn target = insn land lnot (0xffffff lsl 8) lor (target lsl 8)

(* Total words of the instruction starting with this opcode word. *)
let insn_len insn =
  let opc = insn land 0xff in
  if
    opc = op_jtest_l || opc = op_local_arith || opc = op_local2
    || opc = op_jcmp_gg || opc = op_cmp_imm
  then 2
  else if opc = op_jcmp_ll || opc = op_upd_local || opc = op_jcmp_li then 3
  else 1

(* ---- programs ---------------------------------------------------- *)

type lambda_info = { l_entry : int; l_params : int; l_name : string }

type program = {
  code : int array; (* toplevel at pc 0 (ends in Halt), lambda bodies after *)
  consts : int array; (* tagged values too wide for an inline payload *)
  strings : string array; (* runtime-error messages for [Fail] *)
  lambdas : lambda_info array;
  globals : string array; (* global slot -> name, as in [Ast.program] *)
}

(* ---- disassembler ------------------------------------------------ *)

let op_name = function
  | 0 -> "halt"
  | 1 -> "push-int"
  | 2 -> "push-const"
  | 3 -> "push-nil"
  | 4 -> "pop"
  | 5 -> "dup"
  | 6 -> "local"
  | 7 -> "set-local"
  | 8 -> "global"
  | 9 -> "set-global"
  | 10 -> "store-global"
  | 11 -> "jump"
  | 12 -> "jump-if-false"
  | 13 -> "jump-if-true"
  | 14 -> "enter-env"
  | 15 -> "exit-env"
  | 16 -> "closure"
  | 17 -> "call"
  | 18 -> "return"
  | 19 -> "qpair"
  | 20 -> "cons"
  | 21 -> "car"
  | 22 -> "cdr"
  | 23 -> "set-car!"
  | 24 -> "set-cdr!"
  | 25 -> "null?"
  | 26 -> "pair?"
  | 27 -> "not"
  | 28 -> "eq?"
  | 29 -> "add"
  | 30 -> "sub"
  | 31 -> "mul"
  | 32 -> "div"
  | 33 -> "mod"
  | 34 -> "lt"
  | 35 -> "le"
  | 36 -> "gt"
  | 37 -> "ge"
  | 38 -> "eq-num"
  | 39 -> "make-vector"
  | 40 -> "vector-ref"
  | 41 -> "vector-set!"
  | 42 -> "vector-length"
  | 43 -> "print"
  | 44 -> "fail"
  | 45 -> "jcmp-false"
  | 46 -> "arith-imm"
  | 47 -> "jcmp-ll"
  | 48 -> "jtest-l"
  | 49 -> "upd-local"
  | 50 -> "local-arith"
  | 51 -> "local2"
  | 52 -> "local-car"
  | 53 -> "local-cdr"
  | 54 -> "vector-set!v"
  | 55 -> "jcmp-li"
  | 56 -> "jcmp-gg"
  | 57 -> "upd-global"
  | 58 -> "global-arith"
  | 59 -> "cmp-imm"
  | 60 -> "jeq"
  | n -> Printf.sprintf "op%d" n

let pp_triple fmt w =
  Format.fprintf fmt "frame@%d slot %d hops %d" (a w) (b w) (c w)

let pp_kc fmt kc names =
  Format.fprintf fmt "%s%s"
    (if kc land negate_bit <> 0 then "not " else "")
    names.(kc land 7)

(* [pp_insn p code pc fmt insn]: the decoder needs the trailing operand
   words of multi-word instructions, hence the code array and pc. *)
let pp_insn p code pc fmt insn =
  let opc = op insn in
  let name = op_name opc in
  if opc = op_jcmp_ll then
    Format.fprintf fmt "%-14s %a (%a) (%a) -> %d" name
      (fun fmt kc -> pp_kc fmt kc cmp_name)
      (c insn) pp_triple
      code.(pc + 1)
      pp_triple
      code.(pc + 2)
      (a insn)
  else if opc = op_jtest_l then
    Format.fprintf fmt "%-14s %a (%a) -> %d" name
      (fun fmt kc -> pp_kc fmt kc test_name)
      (c insn) pp_triple
      code.(pc + 1)
      (a insn)
  else if opc = op_upd_local then
    Format.fprintf fmt "%-14s (%a) <- (%a) %s %d" name pp_triple
      code.(pc + 2)
      pp_triple
      code.(pc + 1)
      arith_name.(c insn land 7)
      (b insn)
  else if opc = op_local_arith then
    Format.fprintf fmt "%-14s (%a) %s %d" name pp_triple
      code.(pc + 1)
      arith_name.(c insn land 7)
      (b insn)
  else if opc = op_local2 then
    Format.fprintf fmt "%-14s (%a) (%a)" name pp_triple insn pp_triple
      code.(pc + 1)
  else if opc = op_local_car || opc = op_local_cdr then
    Format.fprintf fmt "%-14s %a" name pp_triple insn
  else if opc = op_jcmp_li then
    Format.fprintf fmt "%-14s %a (%a) %d -> %d" name
      (fun fmt kc -> pp_kc fmt kc cmp_name)
      (c insn) pp_triple
      code.(pc + 1)
      code.(pc + 2)
      (a insn)
  else if opc = op_jcmp_gg then
    Format.fprintf fmt "%-14s %a (%s) (%s) -> %d" name
      (fun fmt kc -> pp_kc fmt kc cmp_name)
      (c insn)
      p.globals.(a code.(pc + 1))
      p.globals.(b code.(pc + 1))
      (a insn)
  else if opc = op_upd_global || opc = op_global_arith then
    Format.fprintf fmt "%-14s (%s) %s %d" name
      p.globals.(a insn)
      arith_name.(c insn land 7)
      (b insn)
  else if opc = op_cmp_imm then
    Format.fprintf fmt "%-14s %a %d" name
      (fun fmt kc -> pp_kc fmt kc cmp_name)
      (c insn) code.(pc + 1)
  else if opc = op_jeq then
    Format.fprintf fmt "%-14s %s-> %d" name
      (if c insn land negate_bit <> 0 then "not " else "")
      (a insn)
  else if opc = op_push_int then
    (* payload is the tagged immediate; show the untagged integer *)
    let v = payload insn in
    if v land 1 = 1 then Format.fprintf fmt "%-14s %d" name (v asr 1)
    else Format.fprintf fmt "%-14s ref#%d" name (v lsr 1)
  else if opc = op_push_const then
    let i = a insn in
    let v = p.consts.(i) in
    Format.fprintf fmt "%-14s [%d] = %d" name i (v asr 1)
  else if opc = op_fail then
    Format.fprintf fmt "%-14s %S" name p.strings.(a insn)
  else if opc = op_jcmp_false then
    Format.fprintf fmt "%-14s %a -> %d" name
      (fun fmt kc -> pp_kc fmt kc cmp_name)
      (c insn) (a insn)
  else if opc = op_arith_imm then
    Format.fprintf fmt "%-14s %s %d" name arith_name.(c insn) (b insn)
  else if opc = op_local || opc = op_set_local then
    Format.fprintf fmt "%-14s frame@%d slot %d hops %d" name (a insn) (b insn)
      (c insn)
  else if opc = op_enter_env then
    Format.fprintf fmt "%-14s parent@%d bindings %d" name (a insn) (b insn)
  else if opc = op_closure then
    let l = b insn in
    Format.fprintf fmt "%-14s parent@%d lambda %d (%s)" name (a insn) l
      p.lambdas.(l).l_name
  else if opc = op_global || opc = op_set_global || opc = op_store_global then
    Format.fprintf fmt "%-14s %d (%s)" name (a insn) p.globals.(a insn)
  else if opc = op_jump || opc = op_jump_if_false || opc = op_jump_if_true then
    Format.fprintf fmt "%-14s -> %d" name (a insn)
  else if opc = op_exit_env || opc = op_call then
    Format.fprintf fmt "%-14s %d" name (a insn)
  else Format.pp_print_string fmt name

let pp fmt p =
  let entry_of = Hashtbl.create 16 in
  Array.iteri
    (fun i (l : lambda_info) -> Hashtbl.replace entry_of l.l_entry i)
    p.lambdas;
  Format.fprintf fmt "@[<v>;; %d instruction(s), %d constant(s), %d lambda(s)"
    (Array.length p.code) (Array.length p.consts) (Array.length p.lambdas);
  let pc = ref 0 in
  while !pc < Array.length p.code do
    let pc0 = !pc in
    let insn = p.code.(pc0) in
    (match Hashtbl.find_opt entry_of pc0 with
    | Some l ->
      let li = p.lambdas.(l) in
      Format.fprintf fmt "@,;; lambda %d: %s/%d" l li.l_name li.l_params
    | None -> if pc0 = 0 then Format.fprintf fmt "@,;; toplevel");
    Format.fprintf fmt "@,%4d  %a" pc0 (pp_insn p p.code pc0) insn;
    pc := pc0 + insn_len insn
  done;
  Format.fprintf fmt "@]"

type t = Relaxed | Consume | Acquire | Release | Acq_rel | Seq_cst

let is_acquire = function
  | Consume | Acquire | Acq_rel | Seq_cst -> true
  | Relaxed | Release -> false

let is_release = function
  | Release | Acq_rel | Seq_cst -> true
  | Relaxed | Consume | Acquire -> false

let is_seq_cst = function Seq_cst -> true | _ -> false

let to_string = function
  | Relaxed -> "relaxed"
  | Consume -> "consume"
  | Acquire -> "acquire"
  | Release -> "release"
  | Acq_rel -> "acq_rel"
  | Seq_cst -> "seq_cst"

let of_string = function
  | "relaxed" -> Some Relaxed
  | "consume" -> Some Consume
  | "acquire" -> Some Acquire
  | "release" -> Some Release
  | "acq_rel" -> Some Acq_rel
  | "seq_cst" -> Some Seq_cst
  | _ -> None

let all = [ Relaxed; Consume; Acquire; Release; Acq_rel; Seq_cst ]

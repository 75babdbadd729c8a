(** Summary statistics used by the experiment harness.

    The paper reports mean, (sample) standard deviation, the coefficient
    of variation (CV = sd / mean), and for Table 5 the five-number
    summary of frame rates. *)

type summary = {
  n : int;
  mean : float;
  sd : float;  (** sample standard deviation (n-1 denominator) *)
  cv : float;  (** sd / mean; 0 when mean = 0 *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on the empty list. *)

val summarize_array : float array -> summary
(** [summarize] of the array's elements in index order, bit for bit,
    without a list. @raise Invalid_argument on the empty array. *)

val mean : float list -> float
val sd : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], linear interpolation
    between order statistics (same convention as numpy's default). *)

val rate : bool list -> float
(** Fraction of [true] values, as a percentage in [\[0,100\]]. *)

val pp_mean_sd : Format.formatter -> summary -> unit
(** Paper table style: ["590 (14.45)"]. *)
